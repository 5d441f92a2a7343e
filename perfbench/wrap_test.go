package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tinydir/internal/runstore"
	"tinydir/internal/sweepd"
)

// stores returns a plain Verified directory store and the same stack
// under the timing wrappers, each on its own directory.
func stores(t *testing.T, tr *tracer) (plain, timed runstore.Backend) {
	t.Helper()
	d1, err := runstore.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := runstore.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain = runstore.NewVerified(d1)
	timed = timedStack(tr, d2, func(b runstore.Backend) runstore.Backend { return runstore.NewVerified(b) })
	return plain, timed
}

func TestTimedBackendTransparent(t *testing.T) {
	tr := newTracer()
	plain, timed := stores(t, tr)
	for _, b := range []runstore.Backend{plain, timed} {
		if err := b.Put("results", "k1", []byte("one"), false); err != nil {
			t.Fatal(err)
		}
	}
	type getOut struct {
		data []byte
		ok   bool
		err  error
	}
	get := func(b runstore.Backend, kind, key string) getOut {
		d, ok, err := b.Get(kind, key)
		return getOut{d, ok, err}
	}
	for _, k := range []string{"k1", "missing"} {
		if p, w := get(plain, "results", k), get(timed, "results", k); !reflect.DeepEqual(p, w) {
			t.Errorf("Get %s: plain %+v, timed %+v", k, p, w)
		}
	}
	// Identical re-put is idempotent; different bytes are refused with
	// ErrDiffers through the wrapper too.
	if err := timed.Put("results", "k1", []byte("one"), false); err != nil {
		t.Errorf("identical Put: %v", err)
	}
	err := timed.Put("results", "k1", []byte("two"), false)
	if !errors.Is(err, runstore.ErrDiffers) {
		t.Errorf("differing Put through the wrapper: %v, want ErrDiffers", err)
	}
	pi, pok, perr := plain.Stat("results", "k1")
	wi, wok, werr := timed.Stat("results", "k1")
	if pi.Size != wi.Size || pok != wok || perr != werr {
		t.Errorf("Stat: plain (%v %v %v), timed (%v %v %v)", pi, pok, perr, wi, wok, werr)
	}
	pk, _ := plain.Keys("results")
	wk, _ := timed.Keys("results")
	if len(pk) != len(wk) || pk[0].Key != wk[0].Key {
		t.Errorf("Keys: plain %v, timed %v", pk, wk)
	}
	if err := timed.Delete("results", "k1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := timed.Get("results", "k1"); ok {
		t.Error("entry survived Delete through the wrapper")
	}

	// The verified Get of k1 read the entry and its digest from the
	// blob layer; the outer span's self time excludes both.
	var hit *span
	for _, s := range tr.named("store.get") {
		if s.Req == "k1" && s.Hit {
			s := s
			hit = &s
			break
		}
	}
	if hit == nil {
		t.Fatal("no store.get span for the k1 hit")
	}
	if hit.Self < 0 || hit.Self > int64(hit.dur()) {
		t.Errorf("self time %d outside [0, %d]", hit.Self, hit.dur())
	}
	if n := len(tr.named("dir.get")); n < 3 {
		t.Errorf("%d blob-layer gets recorded, want the entry and digest reads", n)
	}
}

// fleetMux mounts a coordinator and a store the way
// tinydir.AttachSweepService does.
func fleetMux(t *testing.T) (*http.ServeMux, *sweepd.Coordinator) {
	t.Helper()
	d, err := runstore.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := sweepd.New()
	mux := http.NewServeMux()
	mux.Handle("/sweepd/", http.StripPrefix("/sweepd", c.Handler()))
	mux.Handle("/store/", http.StripPrefix("/store", runstore.NewServer(runstore.NewVerified(d))))
	return mux, c
}

type reply struct {
	Status int
	Body   string
	Type   string
}

func do(h http.Handler, method, path, body string) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return reply{rec.Code, rec.Body.String(), rec.Header().Get("Content-Type")}
}

func TestTimedHandlerTransparent(t *testing.T) {
	tr := newTracer()
	rawMux, rawCoord := fleetMux(t)
	wMux, wCoord := fleetMux(t)
	wrapped := timedHandler{next: wMux, tr: tr}

	// Queue one unit on each coordinator; Do blocks until it is done.
	done := make(chan error, 2)
	for _, c := range []*sweepd.Coordinator{rawCoord, wCoord} {
		c := c
		go func() {
			_, err := c.Do(sweepd.Unit{Key: "u1", Payload: []byte("p")})
			done <- err
		}()
	}
	waitQueued := func(c *sweepd.Coordinator) {
		for c.Status().Pending == 0 {
			runtime.Gosched()
		}
	}
	waitQueued(rawCoord)
	waitQueued(wCoord)

	steps := []struct{ method, path, body string }{
		{"GET", "/store/results/abc", ""},
		{"PUT", "/store/results/abc", "bytes"},
		{"GET", "/store/results/abc", ""},
		{"PUT", "/store/results/abc", "other"},
		{"GET", "/store/bad..kind/x", ""},
		{"POST", "/sweepd/claim", `{"Worker":"w"}`},
		{"POST", "/sweepd/claim", `{"Worker":"w"}`},
		{"POST", "/sweepd/done", `{"Worker":"w","Key":"u1","Epoch":1,"Result":"cg=="}`},
		{"POST", "/sweepd/done", `not json`},
		{"GET", "/sweepd/claim", ""},
		{"GET", "/nowhere", ""},
	}
	for _, s := range steps {
		want := do(rawMux, s.method, s.path, s.body)
		got := do(wrapped, s.method, s.path, s.body)
		if got != want {
			t.Errorf("%s %s: wrapped %+v, raw %+v", s.method, s.path, got, want)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("Do: %v", err)
		}
	}

	var claimKeys, doneKeys []string
	var statuses []int
	for _, s := range tr.named("http.claim") {
		claimKeys = append(claimKeys, s.Req)
		statuses = append(statuses, s.Status)
	}
	for _, s := range tr.named("http.done") {
		doneKeys = append(doneKeys, s.Req)
	}
	if !reflect.DeepEqual(claimKeys, []string{"u1", "", ""}) || !reflect.DeepEqual(statuses, []int{200, 204, 405}) {
		t.Errorf("claim spans: keys %q statuses %v", claimKeys, statuses)
	}
	if len(doneKeys) != 2 || doneKeys[0] != "u1" {
		t.Errorf("done spans: keys %q", doneKeys)
	}
	if n := len(tr.named("http.store_get")); n != 3 {
		t.Errorf("%d store_get spans, want 3", n)
	}
}

func TestErrReaderReplaysBodyError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(bytes.NewReader([]byte("ab")), errReader{boom})
	b, err := io.ReadAll(r)
	if string(b) != "ab" || !errors.Is(err, boom) {
		t.Errorf("got %q, %v", b, err)
	}
}
