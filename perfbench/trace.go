package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced call into a module's public function, or one
// server-side phase harvested from a job trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Op     int64  `json:"op"`     // operation the span belongs to; < 0 for untimed layer probes
	Name   string `json:"name"`
	Start  int64  `json:"start_us"` // offset from the tracer's start
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory; write dumps them at exit. A nil tracer
// records nothing, which is how the untraced run stays free of span
// bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.us(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span with known bounds.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.us(start), End: t.us(end)})
	return len(t.spans)
}

// durByName lists span durations (ms) per span name. A library
// workload's spans wrap one public call each and never nest, so a span's
// duration is its layer's self time.
func (t *tracer) durByName() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1000)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
