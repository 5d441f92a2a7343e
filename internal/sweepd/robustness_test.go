package sweepd

// Regression tests for two robustness satellites: the lease-expiry /
// completion race at the exact expiry instant, and the heartbeat
// goroutine teardown on every process() exit path.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tinydir/internal/telemetry"
)

// TestLeaseExpiryCompletionRace drives the coordinator on a manual
// clock through the boundary cases: a unit completing in the same tick
// its lease would expire is accepted exactly once and never counted in
// sweepd_lease_expiries_total; a unit whose lease genuinely lapsed is
// counted exactly once even when the old holder completes it afterward.
func TestLeaseExpiryCompletionRace(t *testing.T) {
	c := New()
	c.LeaseTTL = 10 * time.Second
	c.EnableMetrics(telemetry.NewRegistry())
	clk := newClock()
	c.clock = clk
	expiries := func() uint64 { return c.tel.leaseExpiries.Value() }

	mustClaim := func(want string) {
		t.Helper()
		u, _, ok, _ := c.claim(bg, "w", nil)
		if !ok || u.Key != want {
			t.Fatalf("claim got (%q, %v), want %q", u.Key, ok, want)
		}
	}

	// Case 1: completion lands at exactly the lease expiry instant. The
	// lease is valid through that instant (same boundary heartbeat
	// uses), so an expiry scan in the same tick must not fire.
	ch := submitWait(t, c, Unit{Key: "race0", Payload: nil})
	mustClaim("race0")
	clk.Advance(c.LeaseTTL) // now == leaseExp exactly
	if st := c.Status(); st.Leased != 1 {
		t.Fatalf("lease expired at its own expiry instant: %+v", st)
	}
	if _, ok := c.heartbeat("w", "race0", nil); !ok {
		t.Fatal("heartbeat refused at the expiry instant the expiry scan honors")
	}
	clk.Advance(c.LeaseTTL) // the heartbeat re-extended; land on the boundary again
	if err := c.complete("w", "race0", []byte("r0"), ""); err != nil {
		t.Fatal(err)
	}
	if r := <-ch; r.err != nil || string(r.b) != "r0" {
		t.Fatalf("race0 outcome: %q, %v", r.b, r.err)
	}
	if n := expiries(); n != 0 {
		t.Fatalf("boundary completion counted as expiry: %d", n)
	}

	// Case 2: the lease truly lapses, but the completion arrives before
	// any expiry scan runs. First completion wins; no expiry counted.
	ch = submitWait(t, c, Unit{Key: "race1", Payload: nil})
	mustClaim("race1")
	clk.Advance(c.LeaseTTL + time.Nanosecond)
	if err := c.complete("w", "race1", []byte("r1"), ""); err != nil {
		t.Fatal(err)
	}
	<-ch
	if st := c.Status(); st.Done != 2 { // Status runs an expiry scan over done units: must not fire
		t.Fatalf("post-completion scan disturbed state: %+v", st)
	}
	if n := expiries(); n != 0 {
		t.Fatalf("completed-before-scan unit counted as expiry: %d", n)
	}

	// Case 3: the scan wins the race. Exactly one expiry is counted,
	// the unit requeues, and the old holder's late completion is still
	// accepted exactly once (never double-counted, never refused).
	ch = submitWait(t, c, Unit{Key: "race2", Payload: nil})
	mustClaim("race2")
	clk.Advance(c.LeaseTTL + time.Nanosecond)
	if st := c.Status(); st.Pending != 1 {
		t.Fatalf("lapsed lease not requeued: %+v", st)
	}
	if n := expiries(); n != 1 {
		t.Fatalf("expiries after scan = %d, want 1", n)
	}
	if err := c.complete("w", "race2", []byte("r2"), ""); err != nil {
		t.Fatal(err)
	}
	if r := <-ch; r.err != nil || string(r.b) != "r2" {
		t.Fatalf("race2 outcome: %q, %v", r.b, r.err)
	}
	// The stale queue entry must not serve the done unit again, and the
	// scan that skips it must not count anything.
	if _, _, ok, _ := c.claim(bg, "w2", nil); ok {
		t.Fatal("stale queue entry served a completed unit")
	}
	if n := expiries(); n != 1 {
		t.Fatalf("expiries double-counted: %d", n)
	}
	if st := c.Status(); st.Done != 3 || st.Failed != 0 {
		t.Fatalf("final status: %+v", st)
	}
}

// TestHeartbeatGoroutineTeardown pins the worker shutdown leak fix: the
// heartbeat loop's in-flight request is bound to the unit's context, so
// process() tears it down deterministically even against a coordinator
// that never answers heartbeats. Before the fix, the heartbeat goroutine
// (and its hung connection) outlived every unit.
func TestHeartbeatGoroutineTeardown(t *testing.T) {
	var claims int32
	mux := http.NewServeMux()
	mux.HandleFunc("/claim", func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&claims, 1) > 1 {
			http.Error(w, "sweep complete", http.StatusGone)
			return
		}
		// 30ms lease -> 10ms heartbeat interval: several heartbeats hang
		// inside one 100ms unit.
		json.NewEncoder(w).Encode(claimResponse{Key: "g0", LeaseMs: 30})
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms its background connection
		// read — without it the request context never observes the abort.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // never answer; unblocks only when the client aborts
	})
	mux.HandleFunc("/done", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	before := runtime.NumGoroutine()
	w := &Worker{
		Base: srv.URL, Name: "leaky",
		HC: srv.Client(),
		Run: func(key string, payload []byte) ([]byte, error) {
			time.Sleep(100 * time.Millisecond)
			return []byte("ok"), nil
		},
	}
	loopDone := make(chan error, 1)
	go func() { loopDone <- w.Loop(context.Background()) }()
	select {
	case err := <-loopDone:
		if err != nil {
			t.Fatalf("worker loop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker loop wedged behind a hung heartbeat (teardown not context-bound)")
	}
	w.hc().CloseIdleConnections()

	// The heartbeat goroutine (and the server handler blocked on its
	// request context) must drain; poll with a deadline to ride out
	// connection teardown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
