package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// span is one recorded call into a layer: name, start, end and the span
// that caused it. Spans stay in memory until the run writes them out.
type span struct {
	ID     int
	Parent int // 0: a root span
	Name   string
	Layer  string
	Start  time.Time
	End    time.Time
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// recorder collects spans from any number of goroutines. A nil recorder
// records nothing, so untraced runs share the same code paths.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span named name in layer, child of parent, and
// returns the span's ID (0 on a nil recorder).
func (r *recorder) do(parent int, layer, name string, fn func(id int) error) (int, error) {
	if r == nil {
		return 0, fn(0)
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer})
	r.mu.Unlock()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
	return id, err
}

// spanSeconds is the duration of the span with the given ID.
func (r *recorder) spanSeconds(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].seconds()
}

// count is the number of spans recorded.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// busy sums the durations of the spans with the given layer and name.
func (r *recorder) busy(layer, name string) float64 {
	var s float64
	for _, sp := range r.match(layer, name) {
		s += sp.seconds()
	}
	return s
}

// durations lists the durations, in seconds, of the matching spans.
func (r *recorder) durations(layer, name string) []float64 {
	var out []float64
	for _, sp := range r.match(layer, name) {
		out = append(out, sp.seconds())
	}
	return out
}

// match returns the spans of a layer with the given name ("" matches
// every name in the layer).
func (r *recorder) match(layer, name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, sp := range r.spans {
		if sp.Layer == layer && (name == "" || sp.Name == name) {
			out = append(out, sp)
		}
	}
	return out
}

// writeChromeJSON writes the spans as Chrome trace_event JSON (the format
// of telemetry.Tracer), one complete event per span, loadable in
// Perfetto. Each span's ID and parent ride in its args.
func (r *recorder) writeChromeJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, sp := range r.spans {
		root := sp.ID
		for p := sp.Parent; p != 0; p = r.spans[p-1].Parent {
			root = p
		}
		events = append(events, event{
			Name: sp.Name, Cat: sp.Layer, Ph: "X",
			TS:  float64(sp.Start.Sub(r.t0).Nanoseconds()) / 1e3,
			Dur: float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: root,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
