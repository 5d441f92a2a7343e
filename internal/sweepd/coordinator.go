// Package sweepd is the distributed sweep service: a coordinator that
// serves work units to pull-based workers over HTTP, with leases,
// heartbeats and lease-expiry requeue, and the worker loop that claims,
// executes and reports them.
//
// The package is deliberately ignorant of what a unit *is*: a unit is an
// opaque (key, payload) pair, where the key is the run store's content
// hash (the dedup identity — the coordinator hands out each key at most
// once per lease generation) and the payload is whatever the caller
// serialized (tinydir ships the run's normalized Options as JSON).
// Results flow back as opaque bytes too; the tinydir layer merges them
// into the store through the usual collision guard.
//
// The unit lease state machine (DESIGN.md §12):
//
//	pending --claim--> leased --done--> done       (result recorded once)
//	                     |  \--fail--> failed      (worker-reported error)
//	                     \--lease expiry--> pending (requeue, bounded)
//
// A done unit stays done: late duplicate completions from a worker whose
// lease expired are acknowledged if byte-identical and refused loudly
// (HTTP 409) if not — determinism makes "same key, different result" a
// bug, never a race to tolerate.
//
// The coordinator keeps no durable state (DESIGN.md §14). Workers store
// every result in the caller's content-addressed run store before they
// report it, so a coordinator restarted over the same store is simply
// handed the units still missing from it; a completion that arrives for
// a unit it never saw answers 410 like any other lost lease.
package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ErrClosed reports a coordinator that has been shut down; pending Do
// calls unblock with it.
var ErrClosed = errors.New("sweepd: coordinator closed")

// DefaultLeaseTTL is the lease length handed to workers; a worker that
// neither heartbeats nor completes within it loses the unit.
const DefaultLeaseTTL = 30 * time.Second

// DefaultMaxExpiries bounds how often one unit may be requeued after
// lease expiries before the coordinator fails it (a unit that kills
// every worker that touches it must not wedge the sweep forever).
const DefaultMaxExpiries = 10

// Unit is one work item: the store key it dedups under and the opaque
// payload a worker needs to execute it.
type Unit struct {
	Key     string
	Payload []byte
}

type unitState int

const (
	statePending unitState = iota
	stateLeased
	stateDone
	stateFailed
)

type record struct {
	unit      Unit
	st        unitState
	worker    string    // current/last lease holder
	leaseExp  time.Time // valid while leased
	expiries  int
	claimedAt time.Time // when the current/last lease was granted
	result    []byte
	errmsg    string
	done      chan struct{} // closed when st reaches done or failed
}

// workerInfo is the coordinator's per-worker bookkeeping.
type workerInfo struct {
	Name      string
	LastSeen  time.Time
	Active    string // key of the currently leased unit ("" when idle)
	Completed int
	Failed    int

	// UnitWallSum/UnitsWalled accumulate claim-to-completion wall clock
	// for this worker's units; their ratio feeds the straggler detector.
	UnitWallSum time.Duration
	UnitsWalled int
	// Report is the worker's last pushed self-telemetry snapshot.
	Report *WorkerReport
}

// Coordinator plans nothing itself: callers Submit units (typically from
// the suite's prefetch plan) and block on their completion while workers
// pull them over the HTTP handler. Safe for concurrent use.
type Coordinator struct {
	// LeaseTTL and MaxExpiries default to the package constants when 0.
	LeaseTTL    time.Duration
	MaxExpiries int
	// Log, when set, receives one line per lease-layer event (expiry
	// requeues, refused duplicates). No per-claim chatter.
	Log func(format string, args ...interface{})
	// StragglerFactor defaults to DefaultStragglerFactor when 0.
	StragglerFactor float64

	// tel is the instrument set installed by EnableMetrics; its zero
	// value (all-nil instruments) is telemetry off, so every hook below
	// costs exactly one nil-receiver branch per event when disabled.
	tel coordMetrics

	mu      sync.Mutex
	recs    map[string]*record
	queue   []string // pending keys, claim order
	workers map[string]*workerInfo
	closed  bool
	closeCh chan struct{}
	now     func() time.Time // test seam
}

// New creates an empty coordinator.
func New() *Coordinator {
	return &Coordinator{
		recs:    map[string]*record{},
		workers: map[string]*workerInfo{},
		closeCh: make(chan struct{}),
		now:     time.Now,
	}
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c *Coordinator) maxExpiries() int {
	if c.MaxExpiries > 0 {
		return c.MaxExpiries
	}
	return DefaultMaxExpiries
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Close shuts the coordinator down: pending Do calls return ErrClosed,
// workers' next claim tells them the sweep is over. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.closeCh)
	}
}

// Do submits a unit (idempotently — a key already submitted joins the
// existing record) and blocks until some worker completes it, it fails
// terminally, or the coordinator closes.
func (c *Coordinator) Do(u Unit) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	r, ok := c.recs[u.Key]
	if !ok {
		r = &record{unit: u, st: statePending, done: make(chan struct{})}
		c.recs[u.Key] = r
		c.queue = append(c.queue, u.Key)
	}
	c.mu.Unlock()

	select {
	case <-r.done:
	case <-c.closeCh:
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.st == stateFailed {
		return nil, fmt.Errorf("sweepd: unit %s failed: %s", u.Key, r.errmsg)
	}
	return r.result, nil
}

// expireLocked requeues leased units whose lease lapsed. A lease is
// valid *through* its expiry instant — the same boundary heartbeat uses
// — so a unit completing in the tick its lease would lapse is accepted
// exactly once and never also counted as an expiry. Callers hold mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for key, r := range c.recs {
		if r.st != stateLeased || !now.After(r.leaseExp) {
			continue
		}
		r.expiries++
		c.tel.leaseExpiries.Inc()
		if w := c.workers[r.worker]; w != nil && w.Active == key {
			w.Active = ""
		}
		if r.expiries >= c.maxExpiries() {
			r.st = stateFailed
			r.errmsg = fmt.Sprintf("lease expired %d times (last worker %s)", r.expiries, r.worker)
			c.tel.unitFailures.Inc()
			close(r.done)
			c.logf("sweepd: unit %.12s FAILED: %s", key, r.errmsg)
			continue
		}
		r.st = statePending
		c.queue = append(c.queue, key)
		c.logf("sweepd: unit %.12s lease by %s expired, requeued", key, r.worker)
	}
}

// claim hands the oldest pending unit to a worker, or reports no work
// (ok=false) / sweep over (over=true). rep, when non-nil, is the
// worker's pushed self-telemetry snapshot.
func (c *Coordinator) claim(worker string, rep *WorkerReport) (u Unit, ttl time.Duration, ok, over bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Unit{}, 0, false, true
	}
	c.touchLocked(worker, now, rep)
	c.expireLocked(now)
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue = c.queue[1:]
		r := c.recs[key]
		if r == nil || r.st != statePending {
			continue // stale queue entry (requeued + completed, or failed)
		}
		r.st = stateLeased
		r.worker = worker
		r.leaseExp = now.Add(c.leaseTTL())
		r.claimedAt = now
		c.workers[worker].Active = key
		c.tel.claims.Inc()
		return r.unit, c.leaseTTL(), true, false
	}
	c.tel.claimsEmpty.Inc()
	return Unit{}, 0, false, false
}

// heartbeat extends a worker's lease; reports ok=false when the lease is
// gone (expired and requeued, completed elsewhere, or never held — a
// lease granted by a coordinator that has since been restarted).
func (c *Coordinator) heartbeat(worker, key string, rep *WorkerReport) (ttl time.Duration, ok bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker, now, rep)
	c.tel.heartbeats.Inc()
	r := c.recs[key]
	if r == nil || r.st != stateLeased || r.worker != worker || now.After(r.leaseExp) {
		return 0, false
	}
	r.leaseExp = now.Add(c.leaseTTL())
	return c.leaseTTL(), true
}

// errLeaseGone answers a completion for a unit this coordinator does not
// know — after a restart, one the store already answered. The handler
// maps it to 410, which ends the worker's report.
var errLeaseGone = errors.New("sweepd: lease gone (unknown unit)")

// complete records a unit's outcome. Exactly-once discipline: the first
// completion wins whatever the lease state (a worker that lost its lease
// — to expiry, or to a coordinator restart — but finished anyway still
// delivers a usable, deterministic result); later identical completions
// are acknowledged, differing ones refused.
func (c *Coordinator) complete(worker, key string, result []byte, errmsg string) error {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker, now, nil)
	w := c.workers[worker]
	if w.Active == key {
		w.Active = ""
	}
	r := c.recs[key]
	if r == nil {
		return errLeaseGone
	}
	switch r.st {
	case stateDone:
		if errmsg == "" && string(result) == string(r.result) {
			c.tel.dupIdentical.Inc()
			return nil // duplicate of the recorded result: idempotent
		}
		c.tel.conflicts.Inc()
		c.logf("sweepd: refusing conflicting duplicate completion of %.12s from %s", key, worker)
		return fmt.Errorf("sweepd: unit %s already complete with different outcome (nondeterministic worker or key collision)", key)
	case stateFailed:
		return nil // outcome already terminal; late result discarded
	}
	// Attribute claim-to-completion wall clock to the finishing worker
	// (also on failure — a slow path to a panic is still slowness).
	if !r.claimedAt.IsZero() {
		wall := now.Sub(r.claimedAt)
		w.UnitWallSum += wall
		w.UnitsWalled++
		c.tel.unitWallMS.Observe(uint64(wall.Milliseconds()))
	}
	if errmsg != "" {
		// Worker-reported failures are deterministic (panics, blown
		// deadlines survive retries identically), so fail fast instead
		// of burning every worker on the same unit.
		r.st = stateFailed
		r.errmsg = fmt.Sprintf("worker %s: %s", worker, errmsg)
		w.Failed++
		c.tel.unitFailures.Inc()
		close(r.done)
		return nil
	}
	r.st = stateDone
	r.result = result
	r.worker = worker
	w.Completed++
	c.tel.completions.Inc()
	close(r.done)
	return nil
}

func (c *Coordinator) touchLocked(worker string, now time.Time, rep *WorkerReport) {
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{Name: worker}
		c.workers[worker] = w
	}
	w.LastSeen = now
	if rep != nil {
		w.Report = rep
	}
}

// UnitStatus is one unit's row in a Status snapshot.
type UnitStatus struct {
	Key      string
	State    string
	Worker   string `json:",omitempty"`
	Expiries int    `json:",omitempty"`
	Err      string `json:",omitempty"`
}

// WorkerStatus is one worker's row in a Status snapshot.
type WorkerStatus struct {
	Name      string
	Active    string `json:",omitempty"`
	IdleFor   time.Duration
	Completed int
	Failed    int
	// Units counts completions with wall-clock attribution;
	// MeanUnitWallMs is their mean claim-to-completion wall.
	Units          int     `json:",omitempty"`
	MeanUnitWallMs float64 `json:",omitempty"`
	// Straggler: mean unit wall exceeds StragglerFactor x fleet median.
	// Stale: not heard from in over a lease TTL (heartbeats run at
	// TTL/3, idle polls far faster — silence that long means gone).
	Straggler bool `json:",omitempty"`
	Stale     bool `json:",omitempty"`
	// Report is the worker's last pushed self-telemetry snapshot.
	Report *WorkerReport `json:",omitempty"`
}

// Status is the coordinator's live snapshot (dashboard, /status).
type Status struct {
	Pending, Leased, Done, Failed int
	Total                         int
	Closed                        bool
	Stragglers                    int `json:",omitempty"`
	Workers                       []WorkerStatus
	// Units carries only the non-terminal rows (pending/leased) plus
	// failures — the interesting ones; done units are just a count.
	Units []UnitStatus
}

// Status returns a consistent snapshot, expiring lapsed leases first so
// the view never shows a lease the next claim would not honor.
func (c *Coordinator) Status() Status {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	st := Status{Closed: c.closed, Total: len(c.recs)}
	for key, r := range c.recs {
		switch r.st {
		case statePending:
			st.Pending++
			st.Units = append(st.Units, UnitStatus{Key: key, State: "pending", Expiries: r.expiries})
		case stateLeased:
			st.Leased++
			st.Units = append(st.Units, UnitStatus{Key: key, State: "leased", Worker: r.worker, Expiries: r.expiries})
		case stateDone:
			st.Done++
		case stateFailed:
			st.Failed++
			st.Units = append(st.Units, UnitStatus{Key: key, State: "failed", Worker: r.worker, Expiries: r.expiries, Err: r.errmsg})
		}
	}
	sort.Slice(st.Units, func(i, j int) bool { return st.Units[i].Key < st.Units[j].Key })
	stragglers := c.stragglersLocked()
	for _, w := range c.workers {
		ws := WorkerStatus{
			Name: w.Name, Active: w.Active,
			IdleFor:   now.Sub(w.LastSeen).Round(time.Millisecond),
			Completed: w.Completed, Failed: w.Failed,
			Units:     w.UnitsWalled,
			Straggler: stragglers[w.Name],
			Stale:     now.Sub(w.LastSeen) > c.leaseTTL(),
			Report:    w.Report,
		}
		if w.UnitsWalled > 0 {
			ws.MeanUnitWallMs = float64(w.meanWall()) / float64(time.Millisecond)
		}
		if ws.Straggler {
			st.Stragglers++
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

// The wire types of the coordinator protocol. []byte fields ride JSON's
// base64 encoding.

type claimRequest struct {
	Worker string
	// Report is an optional self-telemetry push; absent from old
	// workers' requests (omitempty both ways keeps the wire compatible).
	Report *WorkerReport `json:",omitempty"`
}

type claimResponse struct {
	Key     string
	Payload []byte
	LeaseMs int64
}

type heartbeatRequest struct {
	Worker, Key string
	Report      *WorkerReport `json:",omitempty"`
}

type heartbeatResponse struct {
	LeaseMs int64
}

type doneRequest struct {
	Worker, Key string
	Result      []byte
	Err         string
}

// Handler returns the coordinator's HTTP API, to be mounted under a
// prefix (tinydir mounts it at /sweepd/):
//
//	POST /claim      {worker} -> 200 {key,payload,leaseMs} | 204 no work | 410 sweep over
//	POST /heartbeat  {worker,key} -> 200 {leaseMs} | 410 lease gone
//	POST /done       {worker,key,result,err} -> 204 | 409 conflicting duplicate | 410 unknown unit
//	GET  /status     -> 200 Status JSON
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		u, ttl, ok, over := c.claim(req.Worker, req.Report)
		switch {
		case over:
			http.Error(w, "sweep complete", http.StatusGone)
		case !ok:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, claimResponse{Key: u.Key, Payload: u.Payload, LeaseMs: ttl.Milliseconds()})
		}
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ttl, ok := c.heartbeat(req.Worker, req.Key, req.Report)
		if !ok {
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		writeJSON(w, heartbeatResponse{LeaseMs: ttl.Milliseconds()})
	})
	mux.HandleFunc("/done", func(w http.ResponseWriter, r *http.Request) {
		var req doneRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		err := c.complete(req.Worker, req.Key, req.Result, req.Err)
		if err == errLeaseGone {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// maxBodyBytes bounds one protocol request (payloads are small Options
// JSON; results are Result JSON — both KBs).
const maxBodyBytes = 16 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
