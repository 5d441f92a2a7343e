package sweepd

// Deterministic chaos harness (DESIGN.md §14): a fault-injecting HTTP
// proxy sits between the workers and the coordinator, drawing every
// injection decision from internal/fault's counter-based splitmix
// stream — so a seed fully determines the fault schedule, independent
// of host scheduling. On top of it, the coordinator is killed mid-sweep
// and replaced by a fresh one that is handed only the units missing
// from the result store, as a `-resume` restart does. The acceptance
// bar: across every seed, every unit completes with its deterministic
// result despite 5xx bursts, dropped connections, truncated responses,
// slow responses and the restart, and no unit stored before the kill
// runs again after it.

import (
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
)

// retargetProxy forwards requests to a swappable target URL — the
// stable address a fleet would reach a coordinator behind (DNS name,
// load balancer) while the coordinator process itself is replaced.
type retargetProxy struct {
	srv    *httptest.Server
	mu     sync.Mutex
	target string

	// Fault injection (all zero = transparent). Drawn per request from
	// the counter-based stream, so the schedule depends only on seed
	// and request ordinal.
	seed                          uint64
	n                             uint64 // atomic draw counter
	p5xx, pDrop, pTruncate, pSlow float64
	injected5xx, injectedDrops    uint64 // atomics
	injectedTruncs, injectedSlows uint64
}

func newRetargetProxy(t *testing.T, target string) *retargetProxy {
	t.Helper()
	p := &retargetProxy{target: target}
	p.srv = httptest.NewServer(http.HandlerFunc(p.serve))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *retargetProxy) URL() string { return p.srv.URL }

func (p *retargetProxy) Retarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

func (p *retargetProxy) currentTarget() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// draw returns one deterministic uniform value per call.
func (p *retargetProxy) draw() uint64 {
	n := atomic.AddUint64(&p.n, 1) - 1
	return fault.Splitmix(p.seed, 1, n)
}

func (p *retargetProxy) serve(w http.ResponseWriter, r *http.Request) {
	// One draw per fault class per request keeps the stream aligned
	// with the request ordinal regardless of which faults fire.
	inject5xx := p.draw() < fault.Threshold(p.p5xx)
	injectDrop := p.draw() < fault.Threshold(p.pDrop)
	injectTrunc := p.draw() < fault.Threshold(p.pTruncate)
	injectSlow := p.draw() < fault.Threshold(p.pSlow)

	if injectSlow {
		atomic.AddUint64(&p.injectedSlows, 1)
		time.Sleep(20 * time.Millisecond)
	}
	if inject5xx {
		atomic.AddUint64(&p.injected5xx, 1)
		http.Error(w, "chaos: injected 5xx", http.StatusBadGateway)
		return
	}
	if injectDrop {
		atomic.AddUint64(&p.injectedDrops, 1)
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
		// The real coordinator is down (mid-restart): surface it as the
		// transport failure it is.
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
		// Advertise the full length, deliver half, cut the connection:
		// the client sees an unexpected EOF mid-body.
		atomic.AddUint64(&p.injectedTruncs, 1)
		w.Header().Set("Content-Length", fmt.Sprint(len(respBody)))
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody[:len(respBody)/2])
		panic(http.ErrAbortHandler)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// waitFor polls cond until it holds or ctx expires.
func waitFor(t *testing.T, ctx context.Context, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatal("condition never held")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// chaosSeeds is the seed sweep; every seed must converge. 8 seeds in
// full mode (the acceptance bar), trimmed under -short.
func chaosSeeds(t *testing.T) []uint64 {
	if testing.Short() {
		return []uint64{1, 2}
	}
	return []uint64{1, 2, 3, 4, 5, 6, 7, 8}
}

// TestChaosSweep: two workers drain a sweep through a faulty proxy
// while the coordinator is killed and restarted mid-flight. Every unit's
// result must come back correct, and the restart must re-run none of
// the units whose results were already stored, for every seed.
func TestChaosSweep(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSweep(t, seed)
		})
	}
}

func runChaosSweep(t *testing.T, seed uint64) {
	const units = 14
	key := func(i int) string { return fmt.Sprintf("unit%02d", i) }
	expect := func(i int) string { return fmt.Sprintf("result-of-%02d", i) }

	c1 := New()
	c1.LeaseTTL = 250 * time.Millisecond
	srv1 := httptest.NewServer(c1.Handler())

	proxy := newRetargetProxy(t, srv1.URL)
	proxy.seed = seed
	proxy.p5xx = 0.10
	proxy.pDrop = 0.05
	proxy.pTruncate = 0.05
	proxy.pSlow = 0.10

	// store stands in for the run store: Run writes its result there
	// before reporting, as a fleet worker PUTs before it posts /done.
	// Each unit's payload names the incarnation that submitted it, so
	// every execution is attributed to the coordinator that leased it.
	// Run is deterministic in the unit key — the same discipline the
	// real worker gets from the simulator — so a late completion from a
	// dead incarnation's lease is as good as any other.
	var mu sync.Mutex
	store := map[string]string{}
	ranUnder := map[string][]byte{} // key -> incarnations it ran under
	mkWorker := func(name string) *Worker {
		return &Worker{
			Base: proxy.URL(), Name: name,
			MaxErrors:  1000, // chaos-dense runs must never give up
			BackoffMax: 10 * time.Millisecond,
			Run: func(key string, payload []byte) ([]byte, error) {
				time.Sleep(10 * time.Millisecond)
				result := "result-of-" + key[4:]
				mu.Lock()
				ranUnder[key] = append(ranUnder[key], payload[1])
				store[key] = result
				mu.Unlock()
				return []byte(result), nil
			},
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	workerErr := make(chan error, 2)
	for _, name := range []string{"cw1", "cw2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			workerErr <- mkWorker(name).Loop(ctx)
		}(name)
	}

	chans1 := make([]chan doResult, units)
	for i := 0; i < units; i++ {
		chans1[i] = submit(c1, Unit{Key: key(i), Payload: []byte{byte(i), 1}})
	}

	// Kill the first incarnation once the sweep is demonstrably
	// mid-flight (some units done, some not).
	waitFor(t, ctx, func() bool { return c1.Status().Done >= 3 })
	srv1.Close()
	c1.Close() // releases this incarnation's Do waiters
	for _, ch := range chans1 {
		<-ch
	}
	mu.Lock()
	storedAtKill := map[string]bool{}
	for k := range store {
		storedAtKill[k] = true
	}
	mu.Unlock()

	// Restart: a fresh coordinator behind the same address is handed
	// only the units missing from the store, the way SweepService's
	// dispatch answers stored keys under Resume before it enqueues.
	c2 := New()
	c2.LeaseTTL = 250 * time.Millisecond
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	proxy.Retarget(srv2.URL)

	chans2 := make([]chan doResult, units)
	for i := 0; i < units; i++ {
		if !storedAtKill[key(i)] {
			chans2[i] = submit(c2, Unit{Key: key(i), Payload: []byte{byte(i), 2}})
		}
	}
	resubmitted := 0
	for i, ch := range chans2 {
		if ch == nil {
			continue
		}
		resubmitted++
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("seed %d unit %d: %v", seed, i, r.err)
			}
			if string(r.b) != expect(i) {
				t.Fatalf("seed %d unit %d: result %q, want %q", seed, i, r.b, expect(i))
			}
		case <-ctx.Done():
			t.Fatalf("seed %d unit %d never completed (proxy: %d 5xx, %d drops, %d truncs)",
				seed, i, atomic.LoadUint64(&proxy.injected5xx),
				atomic.LoadUint64(&proxy.injectedDrops), atomic.LoadUint64(&proxy.injectedTruncs))
		}
	}
	if resubmitted == units {
		t.Fatalf("seed %d: nothing was stored before the kill", seed)
	}
	t.Logf("seed %d: %d of %d units stored before the kill", seed, units-resubmitted, units)

	st := c2.Status()
	if st.Done != resubmitted || st.Failed != 0 {
		t.Fatalf("seed %d final status: %+v", seed, st)
	}
	c2.Close() // sends the fleet home (410)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatalf("seed %d worker: %v", seed, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < units; i++ {
		if store[key(i)] != expect(i) {
			t.Fatalf("seed %d unit %d: stored %q, want %q", seed, i, store[key(i)], expect(i))
		}
		if !storedAtKill[key(i)] {
			continue
		}
		// A unit stored before the kill never re-runs after it.
		for _, inc := range ranUnder[key(i)] {
			if inc == 2 {
				t.Fatalf("seed %d: unit %d was stored before the kill and ran again under the restarted coordinator", seed, i)
			}
		}
	}
}

// TestWorkerRidesCoordinatorRestart: a worker claims a unit from one
// coordinator, which is killed and replaced mid-unit behind the same
// address. The worker's heartbeats hear "lease gone", it finishes the
// run anyway, and its completion is the first one the new coordinator
// sees for the resubmitted unit — so the unit runs exactly once. The
// proxy keeps the worker's base URL stable across the restart, as a
// load balancer or stable DNS name would.
func TestWorkerRidesCoordinatorRestart(t *testing.T) {
	c1 := New()
	c1.LeaseTTL = 300 * time.Millisecond
	srv1 := httptest.NewServer(c1.Handler())

	proxy := newRetargetProxy(t, srv1.URL)

	release := make(chan struct{})
	var runs int32
	w := &Worker{
		Base: proxy.URL(), Name: "rider", BackoffMax: 20 * time.Millisecond,
		Run: func(key string, payload []byte) ([]byte, error) {
			atomic.AddInt32(&runs, 1)
			<-release // hold the unit across the coordinator swap
			return []byte("rode"), nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	loopDone := make(chan error, 1)

	ch1 := submitWait(t, c1, Unit{Key: "held0", Payload: nil})
	go func() { loopDone <- w.Loop(ctx) }()

	// Wait until the worker holds the unit.
	waitFor(t, ctx, func() bool { return atomic.LoadInt32(&runs) == 1 })

	// Swap incarnations under the proxy. Nothing was stored, so the
	// unit is resubmitted to the fresh coordinator.
	srv1.Close()
	c1.Close()
	<-ch1 // ErrClosed
	c2 := New()
	c2.LeaseTTL = 300 * time.Millisecond
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	proxy.Retarget(srv2.URL)
	ch2 := submitWait(t, c2, Unit{Key: "held0", Payload: nil})

	// Let the held run finish: its completion lands on the successor.
	close(release)
	if r := <-ch2; r.err != nil || string(r.b) != "rode" {
		t.Fatalf("unit after restart: %q, %v", r.b, r.err)
	}
	if n := atomic.LoadInt32(&runs); n != 1 {
		t.Fatalf("unit ran %d times, want 1", n)
	}
	c2.Close()
	if err := <-loopDone; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
}
