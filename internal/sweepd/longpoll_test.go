package sweepd

// Regression tests for long-poll claims: a claim with nothing pending is
// held until something happens — a submit, a lease expiry, Close — and
// answered 204 only after LeaseTTL/3.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"tinydir/internal/telemetry"
)

// postClaim sends one raw claim and returns its status and body.
func postClaim(base, worker string) (int, claimResponse, error) {
	body, _ := json.Marshal(claimRequest{Worker: worker})
	resp, err := http.Post(base+"/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, claimResponse{}, err
	}
	defer resp.Body.Close()
	var cl claimResponse
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&cl)
	}
	return resp.StatusCode, cl, err
}

// waitWorkers blocks until the coordinator has heard from n workers.
func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Status().Workers) < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d workers ever claimed", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkedClaimWakesOnSubmit: a worker idle in /claim receives a unit
// the moment it is submitted, not a poll interval later.
func TestParkedClaimWakesOnSubmit(t *testing.T) {
	c := New()
	srv := startCoord(t, c)
	started := make(chan time.Time, 1)
	w := &Worker{
		Base: srv.URL, Name: "idle",
		Run: func(key string, payload []byte) ([]byte, error) {
			started <- time.Now()
			return []byte("ok"), nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go w.Loop(ctx)
	waitWorkers(t, c, 1)
	time.Sleep(100 * time.Millisecond) // parked well inside its 10s hold
	submitted := time.Now()
	done := submit(c, Unit{Key: "late0"})
	select {
	case at := <-started:
		if lag := at.Sub(submitted); lag > 50*time.Millisecond {
			t.Fatalf("parked worker started the unit %v after submit, want < 50ms", lag)
		}
	case <-ctx.Done():
		t.Fatal("unit never started")
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestParkedClaimPicksUpExpiry: a claim parked while the only unit is
// leased to a dead worker receives that unit when the lease lapses,
// without any other request arriving to notice the expiry. The manual
// clock lets the hold run its course instantly.
func TestParkedClaimPicksUpExpiry(t *testing.T) {
	clk := newClock()
	c := New()
	c.clock = clk
	c.LeaseTTL = 30 * time.Second
	srv := startCoord(t, c)
	submitWait(t, c, Unit{Key: "orphan0"})
	if cl := claimOne(t, srv.URL, "dead"); cl.Key != "orphan0" {
		t.Fatalf("dead worker claimed %q", cl.Key)
	}
	// 25s in, a claim parks: its 10s hold outlasts the lease's last 5s.
	clk.Advance(25 * time.Second)
	status, cl, err := postClaim(srv.URL, "live")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || cl.Key != "orphan0" {
		t.Fatalf("parked claim: status %d key %q, want 200 orphan0", status, cl.Key)
	}
	if got, want := clk.Now(), time.Unix(1700000000, 0).Add(30*time.Second+time.Nanosecond); !got.Equal(want) {
		t.Fatalf("claim answered at %v, want just after the expiry (%v)", got, want)
	}
}

// TestCloseAnswersParkedClaim: Close answers a parked claim 410 at once,
// not after its hold.
func TestCloseAnswersParkedClaim(t *testing.T) {
	c := New() // default TTL: a 10s hold
	srv := startCoord(t, c)
	type answer struct {
		status int
		err    error
	}
	got := make(chan answer, 1)
	go func() {
		status, _, err := postClaim(srv.URL, "parked")
		got <- answer{status, err}
	}()
	waitWorkers(t, c, 1)
	time.Sleep(20 * time.Millisecond)
	closed := time.Now()
	c.Close()
	select {
	case a := <-got:
		if a.err != nil || a.status != http.StatusGone {
			t.Fatalf("parked claim after Close: status %d err %v, want 410", a.status, a.err)
		}
		if lag := time.Since(closed); lag > time.Second {
			t.Fatalf("410 took %v after Close", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim not released by Close")
	}
}

// TestParkedWorkerNeverStale: an idle worker is heard from at least every
// TTL/3, so it never shows Stale and stays counted in sweepd_workers.
func TestParkedWorkerNeverStale(t *testing.T) {
	c := New()
	c.LeaseTTL = 60 * time.Millisecond
	reg := telemetry.NewRegistry()
	c.EnableMetrics(reg)
	srv := startCoord(t, c)
	w := &Worker{Base: srv.URL, Name: "idle", Run: func(string, []byte) ([]byte, error) { return nil, nil }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Loop(ctx)
	waitWorkers(t, c, 1)
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		ws := c.Status().Workers
		if len(ws) != 1 || ws[0].Stale {
			t.Fatalf("idle worker shown stale: %+v", ws)
		}
		for _, s := range reg.Snapshot() {
			if s.Name == "sweepd_workers" && s.Value != 1 {
				t.Fatalf("sweepd_workers = %v, want 1", s.Value)
			}
		}
	}
}

// TestClaimsEmptyCountsAnswers: sweepd_claims_empty_total counts 204
// answers, not wake-ups lost to another parked worker.
func TestClaimsEmptyCountsAnswers(t *testing.T) {
	c := New()
	c.LeaseTTL = 300 * time.Millisecond // 100ms holds
	reg := telemetry.NewRegistry()
	c.EnableMetrics(reg)
	srv := startCoord(t, c)
	var mu sync.Mutex
	statuses := map[int]int{}
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			status, _, err := postClaim(srv.URL, name)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			statuses[status]++
			mu.Unlock()
		}(name)
	}
	waitWorkers(t, c, 2)
	submit(c, Unit{Key: "one0"}) // wakes both; one wins, the other parks again
	wg.Wait()
	if statuses[http.StatusOK] != 1 || statuses[http.StatusNoContent] != 1 {
		t.Fatalf("answers %v, want one 200 and one 204", statuses)
	}
	vals := map[string]float64{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
	}
	if vals["sweepd_claims_total"] != 1 || vals["sweepd_claims_empty_total"] != 1 {
		t.Fatalf("claims %v, empty %v; want 1 and 1", vals["sweepd_claims_total"], vals["sweepd_claims_empty_total"])
	}
}

// TestDrainWaitsForLiveWorkers: after Close, Drain returns once every
// worker heard from within a TTL has been answered 410 — including one
// that was between two requests at Close — and gives up at ctx.
func TestDrainWaitsForLiveWorkers(t *testing.T) {
	c := New()
	srv := startCoord(t, c)
	submitWait(t, c, Unit{Key: "u0"})
	claimOne(t, srv.URL, "busy") // seen, now between requests
	c.Close()
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Drain(short); err == nil {
		t.Fatal("Drain returned before the busy worker heard the sweep is over")
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()
	if status, _, err := postClaim(srv.URL, "busy"); err != nil || status != http.StatusGone {
		t.Fatalf("claim after Close: %d %v", status, err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the last worker heard 410")
	}
}
