package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Ids start at 1; parent 0 means a root span. op is the
// trial or scenario the span belongs to (-1 for none).
type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps the spans of one workload's traced pass in memory. A nil
// tracer records nothing, so untraced passes run the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex // spans are recorded from trial and suite workers
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	at := now().Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, start: at, end: at})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := now().Sub(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = at
	t.mu.Unlock()
}

// self returns span id's duration minus the part of it its children cover.
// Children may overlap one another (parallel workers), so their intervals
// are merged before they are subtracted.
func (t *tracer) self(id int) time.Duration {
	p := t.spans[id-1]
	var iv [][2]time.Duration
	for _, s := range t.spans {
		if s.parent != id {
			continue
		}
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach time.Duration
	reach = p.start
	for _, v := range iv {
		if v[0] > reach {
			reach = v[0]
		}
		if v[1] > reach {
			covered += v[1] - reach
			reach = v[1]
		}
	}
	return p.end - p.start - covered
}

// durations returns the host time of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans of every tracer as Chrome trace-event JSON,
// one process id per tracer (Perfetto and chrome://tracing open it). Spans
// of one op share a thread id, so concurrent ops land on separate rows.
func writeChrome(path string, tracers []*tracer) error {
	var evs []chromeEvent
	for pid, t := range tracers {
		for _, s := range t.spans {
			evs = append(evs, chromeEvent{
				Name: s.name, Ph: "X",
				Ts:  float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3,
				Pid: pid, Tid: s.op + 1,
				Args: map[string]any{
					"id": s.id, "parent": s.parent, "op": s.op,
					"self_us": float64(t.self(s.id)) / 1e3,
				},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("marshal trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
