package tinydir

// End-to-end chaos: a real figure sweep — verified store, two
// RunSweepWorker fleet members — driven through a fault-injecting proxy
// that serves 5xx bursts, drops connections, truncates responses and
// slows requests on a seeded schedule. Mid-sweep the coordinator is
// killed and a fresh one is started over the same store directory with
// Suite.Resume, which is what `experiments -serve -resume` does after a
// crash. The acceptance bar is the same as the clean distributed test:
// the figure CSV must come out byte-identical to a plain local build,
// with zero failures and zero quarantined store entries, and the
// restarted coordinator must simulate no unit whose result was already
// stored at the kill.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinydir/internal/fault"
	"tinydir/internal/runstore"
)

// chaosProxy fronts the coordinator for the whole worker protocol —
// /sweepd/ and /store/ alike — injecting faults drawn from the
// counter-based splitmix stream, so a seed fixes the fault schedule
// for a given request ordering. Its address outlives the coordinator
// behind it: retarget swaps in a restarted one.
type chaosProxy struct {
	mu                            sync.Mutex
	target                        string
	seed                          uint64
	n                             uint64 // atomic draw counter
	p5xx, pDrop, pTruncate, pSlow float64
	injected                      uint64 // atomic, all classes
}

func (p *chaosProxy) retarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

func (p *chaosProxy) currentTarget() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

func (p *chaosProxy) draw() uint64 {
	n := atomic.AddUint64(&p.n, 1) - 1
	return fault.Splitmix(p.seed, 1, n)
}

func (p *chaosProxy) serve(w http.ResponseWriter, r *http.Request) {
	// One draw per fault class per request keeps the stream aligned with
	// the request ordinal regardless of which faults fire.
	inject5xx := p.draw() < fault.Threshold(p.p5xx)
	injectDrop := p.draw() < fault.Threshold(p.pDrop)
	injectTrunc := p.draw() < fault.Threshold(p.pTruncate)
	injectSlow := p.draw() < fault.Threshold(p.pSlow)

	if injectSlow {
		time.Sleep(10 * time.Millisecond)
	}
	if inject5xx {
		atomic.AddUint64(&p.injected, 1)
		http.Error(w, "chaos: injected 5xx", http.StatusBadGateway)
		return
	}
	if injectDrop {
		atomic.AddUint64(&p.injected, 1)
		panic(http.ErrAbortHandler) // connection reset, no response
	}

	body, err := io.ReadAll(r.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.currentTarget()+r.URL.Path, strings.NewReader(string(body)))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		// No coordinator behind the proxy (mid-restart): the transport
		// failure a worker sees while one is down.
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if injectTrunc && len(respBody) > 1 {
		// Advertise the full length, deliver half, cut the connection.
		atomic.AddUint64(&p.injected, 1)
		w.Header().Set("Content-Length", fmt.Sprint(len(respBody)))
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody[:len(respBody)/2])
		panic(http.ErrAbortHandler)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// TestChaosSweepEndToEnd: for each seed, a faulted distributed figure
// whose coordinator is killed and resumed mid-sweep is byte-identical
// to the local oracle, the resumed coordinator re-simulates nothing that
// was stored at the kill, and the verified store never quarantined
// anything.
func TestChaosSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is a full-mode test")
	}
	// One oracle serves every seed.
	local := NewSuite(ScaleTest)
	local.Workers = 4
	var want bytes.Buffer
	if err := local.Fig1().WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{3, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosE2E(t, seed, want.Bytes())
		})
	}
}

// chaosCoordinator is one coordinator incarnation over the store
// directory, started the way `experiments -serve -resume -cache-dir`
// starts one.
type chaosCoordinator struct {
	suite *Suite
	store *RunStore
	svc   *SweepService
	srv   *httptest.Server
}

func startChaosCoordinator(t *testing.T, dir string) *chaosCoordinator {
	t.Helper()
	store, err := NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	suite := NewSuite(ScaleTest)
	suite.Workers = 4
	suite.Store = store
	suite.Resume = true
	mux := http.NewServeMux()
	svc := AttachSweepService(suite, store, mux)
	svc.Coord.LeaseTTL = 2 * time.Second // dropped heartbeats must not expire live workers
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Close)
	return &chaosCoordinator{suite: suite, store: store, svc: svc, srv: srv}
}

// quarantined reports how many entries the incarnation's verified store
// moved aside.
func (c *chaosCoordinator) quarantined(t *testing.T) uint64 {
	t.Helper()
	v := runstore.FindVerified(c.store.Backend())
	if v == nil {
		t.Fatal("coordinator store is not integrity-wrapped")
	}
	return v.Counters().Quarantined
}

func runChaosE2E(t *testing.T, seed uint64, want []byte) {
	dir := t.TempDir()
	first := startChaosCoordinator(t, dir)
	proxy := &chaosProxy{
		target: first.srv.URL, seed: seed,
		p5xx: 0.04, pDrop: 0.02, pTruncate: 0.02, pSlow: 0.05,
	}
	psrv := httptest.NewServer(http.HandlerFunc(proxy.serve))
	defer psrv.Close()

	firstFig := make(chan struct{})
	go func() {
		first.suite.Fig1()
		close(firstFig)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	workerErr := make(chan error, 2)
	for _, name := range []string{"chaos-w1", "chaos-w2"} {
		go func(name string) {
			workerErr <- RunSweepWorker(ctx, WorkerConfig{
				Coordinator: psrv.URL, // every protocol + store byte rides the proxy
				Name:        name,
				CacheBytes:  1 << 20,
			})
		}(name)
	}

	// Kill the first incarnation mid-sweep. The listener goes first, so
	// no worker ever hears its shutdown as "sweep over"; then the
	// in-memory sweep state dies with it, as under kill -9.
	for first.svc.Coord.Status().Done < 8 {
		select {
		case <-firstFig:
			t.Fatalf("seed %d: sweep finished before the kill", seed)
		case <-ctx.Done():
			t.Fatalf("seed %d: sweep never got under way", seed)
		case <-time.After(5 * time.Millisecond):
		}
	}
	proxy.retarget("")
	first.srv.Close()
	first.suite.Cancel()
	first.svc.Close()
	<-firstFig
	if n := len(first.suite.Failures()); n != 0 {
		t.Fatalf("seed %d: first incarnation recorded %d failures: %+v", seed, n, first.suite.Failures())
	}
	infos, err := first.store.Backend().Keys(runstore.KindResults)
	if err != nil {
		t.Fatal(err)
	}
	storedAtKill := map[string]bool{}
	for _, info := range infos {
		storedAtKill[info.Key] = true
	}

	// Restart over the same directory with Resume. Every unit the
	// restarted coordinator has simulated is checked against the store
	// as it stood at the kill.
	second := startChaosCoordinator(t, dir)
	var mu sync.Mutex
	var resimulated []string
	dispatch := second.suite.Dispatch
	second.suite.Dispatch = func(o Options) (Result, bool, error) {
		r, simulated, err := dispatch(o)
		if key := second.store.Key(normalizeOptions(o)); simulated && storedAtKill[key] {
			mu.Lock()
			resimulated = append(resimulated, key)
			mu.Unlock()
		}
		return r, simulated, err
	}
	proxy.retarget(second.srv.URL)

	figCh := make(chan Figure, 1)
	go func() { figCh <- second.suite.Fig1() }()
	var fig Figure
	select {
	case fig = <-figCh:
	case <-ctx.Done():
		t.Fatalf("seed %d: figure never completed (%d faults injected)", seed, atomic.LoadUint64(&proxy.injected))
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("seed %d: chaos CSV diverged from local build:\n--- local ---\n%s\n--- chaos ---\n%s",
			seed, want, got.String())
	}
	if n := len(second.suite.Failures()); n != 0 {
		t.Fatalf("seed %d: sweep recorded %d failures: %+v", seed, n, second.suite.Failures())
	}
	st := second.svc.Coord.Status()
	if st.Done != st.Total || st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("seed %d: coordinator not drained: %+v", seed, st)
	}
	if len(storedAtKill) == 0 {
		t.Fatalf("seed %d: nothing was stored before the kill", seed)
	}
	// Under Resume, dispatch answers stored keys from the store before
	// it enqueues, so none of them even reaches the coordinator.
	if planned := second.suite.Monitor().Snapshot().Planned; st.Total+len(storedAtKill) > planned {
		t.Fatalf("seed %d: restart enqueued %d units, but only %d of %d were missing from the store",
			seed, st.Total, planned-len(storedAtKill), planned)
	}
	if len(resimulated) != 0 {
		t.Fatalf("seed %d: restart re-simulated %d units stored before the kill: %v", seed, len(resimulated), resimulated)
	}
	t.Logf("seed %d: %d results stored at the kill, %d units dispatched after it", seed, len(storedAtKill), st.Total)
	// Wire faults must never have looked like data corruption: a
	// quarantine here would mean a truncated or garbled body got past
	// the transport checks into the verified layer.
	if q := first.quarantined(t) + second.quarantined(t); q != 0 {
		t.Fatalf("seed %d: store quarantined %d entries under wire chaos", seed, q)
	}
	if atomic.LoadUint64(&proxy.injected) == 0 {
		t.Fatalf("seed %d: proxy injected no faults; chaos schedule is dead", seed)
	}

	second.svc.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Errorf("seed %d worker exit: %v", seed, err)
			}
		case <-ctx.Done():
			t.Fatal("workers never exited after Close")
		}
	}
}
