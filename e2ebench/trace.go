package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a request's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends; a nil *tracer
// records nothing, which is how the untraced run measures.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newReq returns a fresh request ID (0 on a nil tracer).
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// record stores a finished span and returns its ID.
func (t *tracer) record(req, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// byName returns the durations of every span with the given name.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("trace: %d spans written to %s", n, path)
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
