package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// topN is how many functions the profile summary lists.
const topN = 25

// profileShares names the hot spots the workloads are chosen to
// separate; each share is the named function's cumulative fraction of
// the profiled pass's CPU samples.
var profileShares = []struct{ metric, function string }{
	{"profile.join_frac", "sidewinder/internal/interp.(*joinInst).Push"},
	{"profile.pa_frac", "sidewinder/internal/sim.PredefinedActivity.Run"},
	{"profile.trace_len_frac", "sidewinder/internal/sensor.(*Trace).Len"},
	{"profile.fft_frac", "sidewinder/internal/dsp.fftInternal"},
}

// profilePass runs one more pass under the CPU profiler, writes the
// profile to base+".cpu.pprof" and the top functions by flat CPU to
// base+".top.txt", and returns the summary plus the shares of the
// functions in profileShares. Summarizing needs the go toolchain's pprof; if
// it is missing the shares read 0 and the summary says why.
func profilePass(wl workload, base string) (string, map[string]metric, error) {
	shares := map[string]metric{}
	for _, s := range profileShares {
		shares[s.metric] = metric{0, "ratio"}
	}
	path := base + ".cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", nil, err
	}
	_, passErr := wl.pass(nil, 0)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	if passErr != nil {
		return "", nil, passErr
	}

	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=400", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	full, err := cmd.Output()
	if err != nil {
		msg := fmt.Sprintf("profile summary unavailable: go tool pprof: %v %s\n", err, strings.TrimSpace(stderr.String()))
		return msg, shares, os.WriteFile(base+".top.txt", []byte(msg), 0o644)
	}
	var top strings.Builder
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(full))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		cum, isRow := parseCum(fields)
		if isRow {
			for _, s := range profileShares {
				if fields[5] == s.function {
					shares[s.metric] = metric{cum, "ratio"}
				}
			}
			rows++
		}
		if !isRow || rows <= topN {
			top.WriteString(line + "\n")
		}
	}
	for _, s := range profileShares {
		fmt.Fprintf(&top, "%s %.4f\n", s.metric, shares[s.metric].Value)
	}
	return top.String(), shares, os.WriteFile(base+".top.txt", []byte(top.String()), 0o644)
}

// parseCum reads the cumulative share of a pprof -top row ("1.2s 30.00%
// 30.00% 1.5s 37.50% pkg.fn") as a fraction.
func parseCum(fields []string) (float64, bool) {
	if len(fields) < 6 || !strings.HasSuffix(fields[4], "%") {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(fields[4], "%"), 64)
	if err != nil {
		return 0, false
	}
	return v / 100, true
}
