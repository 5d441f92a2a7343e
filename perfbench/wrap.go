package main

// Timing wrappers at the sweep stack's two boundaries the benchmark can
// reach from outside: the runstore.Backend interface and the
// coordinator's HTTP mux. Both pass every call through unchanged (same
// bytes, errors and status codes) and record a span per call.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tinydir/internal/runstore"
)

// frames pairs an outer timed backend with the inner one it reaches
// through the layer in between (the integrity layer): while the outer
// call on (kind, key) is open, the inner wrapper charges its time to
// it, so the outer span's self time is the middle layer's own work.
type frames struct {
	mu   sync.Mutex
	open map[string]*time.Duration
}

func newFrames() *frames { return &frames{open: map[string]*time.Duration{}} }

// enter opens the frame for (kind, key); nil when a concurrent call on
// the same entry already holds it (that call then goes unpaired).
func (f *frames) enter(kind, key string) *time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := kind + "/" + key
	if f.open[id] != nil {
		return nil
	}
	d := new(time.Duration)
	f.open[id] = d
	return d
}

func (f *frames) exit(kind, key string) {
	f.mu.Lock()
	delete(f.open, kind+"/"+key)
	f.mu.Unlock()
}

// charge adds an inner call's time to the open frame of its entry; a
// digest sidecar charges the entry it describes.
func (f *frames) charge(kind, key string, d time.Duration) {
	kind = strings.TrimSuffix(kind, runstore.DigestKind(""))
	f.mu.Lock()
	if acc := f.open[kind+"/"+key]; acc != nil {
		*acc += d
	}
	f.mu.Unlock()
}

// timedBackend times every call into inner as a span named
// "<layer>.<op>". With outer set it opens frames and records self time;
// otherwise it charges its time to the frames of the wrapper above.
type timedBackend struct {
	inner runstore.Backend
	tr    *tracer
	layer string
	fr    *frames
	outer bool
}

// timedStack wraps a store stack from outside: outer times the whole
// stack, innermost times the blob layer under the integrity layer.
func timedStack(tr *tracer, dir runstore.Backend, middle func(runstore.Backend) runstore.Backend) runstore.Backend {
	fr := newFrames()
	inner := &timedBackend{inner: dir, tr: tr, layer: "dir", fr: fr}
	return &timedBackend{inner: middle(inner), tr: tr, layer: "store", fr: fr, outer: true}
}

func (b *timedBackend) record(op, kind, key string, start time.Time, n int, hit bool, acc *time.Duration) {
	end := time.Now()
	d := end.Sub(start)
	s := span{Name: b.layer + "." + op, Kind: kind, Req: key, Start: b.tr.at(start), End: b.tr.at(end), Bytes: int64(n), Hit: hit, Self: -1}
	switch {
	case b.outer && acc != nil:
		s.Self = int64(d - *acc)
	case !b.outer:
		b.fr.charge(kind, key, d)
	}
	b.tr.add(s)
}

func (b *timedBackend) frame(kind, key string) (*time.Duration, func()) {
	if !b.outer {
		return nil, func() {}
	}
	acc := b.fr.enter(kind, key)
	if acc == nil {
		return nil, func() {}
	}
	return acc, func() { b.fr.exit(kind, key) }
}

func (b *timedBackend) Get(kind, key string) ([]byte, bool, error) {
	acc, done := b.frame(kind, key)
	defer done()
	start := time.Now()
	data, ok, err := b.inner.Get(kind, key)
	b.record("get", kind, key, start, len(data), ok, acc)
	return data, ok, err
}

func (b *timedBackend) Put(kind, key string, data []byte, replace bool) error {
	acc, done := b.frame(kind, key)
	defer done()
	start := time.Now()
	err := b.inner.Put(kind, key, data, replace)
	b.record("put", kind, key, start, len(data), err == nil, acc)
	return err
}

func (b *timedBackend) Stat(kind, key string) (runstore.Info, bool, error) {
	start := time.Now()
	info, ok, err := b.inner.Stat(kind, key)
	b.record("stat", kind, key, start, 0, ok, nil)
	return info, ok, err
}

func (b *timedBackend) Keys(kind string) ([]runstore.Info, error) {
	start := time.Now()
	infos, err := b.inner.Keys(kind)
	b.record("keys", kind, "", start, 0, err == nil, nil)
	return infos, err
}

func (b *timedBackend) Delete(kind, key string) error {
	start := time.Now()
	err := b.inner.Delete(kind, key)
	b.record("delete", kind, key, start, 0, err == nil, nil)
	return err
}

// timedHandler times every request the coordinator's mux serves as a
// span "http.<route>", with its status, response size and the unit key
// it carried (claim responses, done requests, store paths).
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, key := routeOf(r)
	if route == "done" {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), errReader{err}))
		key = unitKey(body)
	}
	rec := &recorder{ResponseWriter: w, capture: route == "claim"}
	start := time.Now()
	h.next.ServeHTTP(rec, r)
	end := time.Now()
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	if route == "claim" && rec.status == http.StatusOK {
		key = unitKey(rec.body.Bytes())
	}
	h.tr.add(span{Name: "http." + route, Req: key, Start: h.tr.at(start), End: h.tr.at(end), Status: rec.status, Bytes: rec.n})
}

// routeOf classifies a request by the coordinator's mount points.
func routeOf(r *http.Request) (route, key string) {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/sweepd/"); ok {
		switch rest {
		case "claim", "done", "heartbeat", "status":
			return rest, ""
		}
		return "other", ""
	}
	if rest, ok := strings.CutPrefix(p, "/store/"); ok {
		_, key, _ := strings.Cut(rest, "/")
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			return "store_get", key
		case http.MethodPut:
			return "store_put", key
		}
		return "store_other", key
	}
	return "other", ""
}

// unitKey extracts the Key field of a protocol message ("" if none).
func unitKey(body []byte) string {
	var m struct{ Key string }
	if json.Unmarshal(body, &m) != nil {
		return ""
	}
	return m.Key
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	return 0, io.EOF
}

// recorder passes a response through, noting its status and size and,
// when capture is set, keeping a copy of the body.
type recorder struct {
	http.ResponseWriter
	status  int
	n       int64
	capture bool
	body    bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if r.capture {
		r.body.Write(p)
	}
	n, err := r.ResponseWriter.Write(p)
	r.n += int64(n)
	return n, err
}
