package telemetry

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// ForFiles returns the sinks a command's output files need: a registry
// and a ledger when metricsFile is named, a tracer when traceFile is. With
// neither the set is disabled, so instrumented runs are unchanged.
func ForFiles(metricsFile, traceFile string) Set {
	var s Set
	if metricsFile != "" {
		s.Metrics = NewRegistry()
		s.Ledger = NewLedger()
	}
	if traceFile != "" {
		s.Tracer = NewTracer()
	}
	return s
}

// WriteFiles exports the sinks to the files ForFiles built them for. The
// metrics file carries the registry and the ledger: one JSON object
// {"metrics":…,"ledger":…} when its name ends in .json, aligned text
// otherwise. The trace file is Chrome trace_event JSON. An empty name
// skips that file.
func (s *Set) WriteFiles(metricsFile, traceFile string) error {
	if metricsFile != "" {
		steps := []func(io.Writer) error{s.Metrics.WriteText, literal("\n"), s.Ledger.WriteText}
		if strings.HasSuffix(metricsFile, ".json") {
			steps = []func(io.Writer) error{literal(`{"metrics":`), s.Metrics.WriteJSON,
				literal(`,"ledger":`), s.Ledger.WriteJSON, literal("}\n")}
		}
		if err := writeFile(metricsFile, steps...); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if traceFile != "" {
		if err := writeFile(traceFile, s.Tracer.WriteJSON); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}

// literal returns a step writing a fixed string.
func literal(text string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, text)
		return err
	}
}

// writeFile creates name and runs the steps against it in order, stopping
// at the first error.
func writeFile(name string, steps ...func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	for _, step := range steps {
		if err = step(f); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
