package main

// Spans recorded by the benchmark around its calls into each layer.
// They are kept in memory during the traced passes and written out
// when the run ends; the per-layer span metrics are derived from them.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Req identifies the work
// unit it served (a store key, or a run label for local runs); spans of
// one unit share it. Parent is the pass span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
	Hit    bool   `json:"hit,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans; a nil *tracer is tracing off and records
// nothing.
type tracer struct {
	t0   time.Time
	pass atomic.Int64 // id of the open pass span

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// add records s, parenting it to the open pass unless it has a parent,
// and returns its id.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	if s.Parent == 0 {
		s.Parent = t.pass.Load()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	return s.ID
}

// beginPass reserves the id of a new pass span; endPass records it.
func (t *tracer) beginPass() int64 {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.pass.Store(id)
	return id
}

func (t *tracer) endPass(id int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: "pass", Start: t.at(start), End: t.at(end)})
	t.pass.Store(0)
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	return t.filter(func(s string) bool { return s == name })
}

// withPrefix returns the recorded spans whose name starts with prefix.
func (t *tracer) withPrefix(prefix string) []span {
	return t.filter(func(s string) bool { return strings.HasPrefix(s, prefix) })
}

func (t *tracer) filter(keep func(name string) bool) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if keep(s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object a line, after a first
// line carrying meta.
func (t *tracer) writeJSONL(path string, meta any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
