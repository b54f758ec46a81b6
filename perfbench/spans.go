package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program:
// Op groups the spans of one operation, and Keys is the work the call
// was handed, for per-key rates. Every span is a call the benchmark
// itself made, so none has a parent.
type span struct {
	ID     int      `json:"id"`
	Op     int      `json:"op"`
	Name   string   `json:"name"`
	Layer  string   `json:"layer"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Keys   int      `json:"keys,omitempty"`
	Failed bool     `json:"failed,omitempty"`
	Res    runStats `json:"res"` // the engine's own breakdown, on engine spans
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the length of a run; a nil tracer
// records nothing, which is how the untraced runs measure.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // the serve workload records from many goroutines
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// op starts a new operation ID that the spans of one request share.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin returns the start mark of a span; end records it. Both are
// cheap enough to wrap every call without distorting it.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) end(op int, layer, name string, start int64, keys int) int {
	if t == nil {
		return 0
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Op: op, Name: name, Layer: layer,
		Start: start, End: end, Keys: keys,
	})
	return len(t.spans)
}

// set attaches the call's outcome to span id.
func (t *tracer) set(id int, failed bool, res runStats) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Failed = failed
	t.spans[id-1].Res = res
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durMs returns each span's duration in milliseconds.
func durMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

// nsPerKey returns the median over spans of duration / keys.
func nsPerKey(ss []span) float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.Keys > 0 {
			xs = append(xs, float64(s.dur())/float64(s.Keys))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// write stores the spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
