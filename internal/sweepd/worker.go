package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"tinydir/internal/telemetry"
)

// Worker is the pull loop of one fleet member: claim a unit, execute it
// through Run while a background goroutine heartbeats the lease, report
// the outcome, repeat. It holds no sweep state — a worker can join late,
// die mid-lease (the coordinator requeues), or be pointed at a fresh
// coordinator after a restart.
type Worker struct {
	// Base is the coordinator API root, e.g. "http://host:6060/sweepd".
	Base string
	// Name identifies this worker in leases and the dashboard.
	Name string
	// Run executes one unit and returns its serialized result. An error
	// marks the unit failed at the coordinator (deterministic failures
	// are not retried); Run must catch panics itself if it wants them
	// reported rather than crashing the worker.
	Run func(key string, payload []byte) ([]byte, error)
	// MaxErrors bounds consecutive transport failures before Loop gives
	// up (default 20) — a vanished coordinator should stop the worker,
	// not spin it forever.
	MaxErrors int
	// BackoffMax caps the exponential retry backoff on transport errors
	// (default 15s). With the defaults a worker rides out roughly four
	// minutes of coordinator outage — a restart, not a disappearance —
	// before giving up.
	BackoffMax time.Duration
	// Log, when set, receives one line per unit and per lease event.
	Log func(format string, args ...interface{})
	// Logger, when set, receives structured retry/recovery lines (one
	// per backoff attempt, satellite of the fleet-telemetry work).
	Logger *telemetry.Logger
	// Tel, when set, records claim/execute/report latencies and pushes
	// a WorkerReport with every claim and heartbeat. Nil means off: no
	// report field on the wire, byte-identical requests to old workers.
	Tel *WorkerTelemetry
	// HC is the HTTP client (default: a fresh http.Client).
	HC *http.Client

	units uint64 // completed unit count (atomic)
}

func (w *Worker) maxErrors() int {
	if w.MaxErrors > 0 {
		return w.MaxErrors
	}
	return 20
}

func (w *Worker) backoffMax() time.Duration {
	if w.BackoffMax > 0 {
		return w.BackoffMax
	}
	return 15 * time.Second
}

// backoffBase is the first retry's sleep after a transport failure.
const backoffBase = 500 * time.Millisecond

// backoff is the sleep before retry attempt n (1-based): backoffBase
// doubled per consecutive failure, capped at BackoffMax.
func (w *Worker) backoff(n int) time.Duration {
	d := backoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= w.backoffMax() {
			return w.backoffMax()
		}
	}
	if d > w.backoffMax() {
		return w.backoffMax()
	}
	return d
}

func (w *Worker) hc() *http.Client {
	if w.HC != nil {
		return w.HC
	}
	return http.DefaultClient
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

// Units returns how many units this worker has completed (success or
// reported failure).
func (w *Worker) Units() uint64 { return atomic.LoadUint64(&w.units) }

// Loop runs until the coordinator reports the sweep over (returns nil),
// ctx is cancelled (returns ctx.Err() once the in-flight unit, if any,
// finishes), or too many consecutive transport errors accumulate.
func (w *Worker) Loop(ctx context.Context) error {
	errs := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cl, status, err := w.claim(ctx)
		if err != nil {
			// Transient transport failure — the coordinator may just be
			// restarting. Back off exponentially (backoffBase doubled
			// per consecutive failure, capped) rather than hammering it,
			// and give up only after MaxErrors straight failures. A 410
			// is not an error: sweep-over still sends the fleet home
			// through the StatusGone arm below.
			errs++
			if errs >= w.maxErrors() {
				w.Logger.Error("giving up on coordinator",
					telemetry.F("worker", w.Name), telemetry.F("attempts", errs), telemetry.F("err", err))
				return fmt.Errorf("sweepd: worker %s: coordinator unreachable after %d attempts: %w", w.Name, errs, err)
			}
			wait := w.backoff(errs)
			w.Logger.Warn("coordinator unreachable, backing off",
				telemetry.F("worker", w.Name), telemetry.F("attempt", errs),
				telemetry.F("max_attempts", w.maxErrors()), telemetry.F("backoff", wait),
				telemetry.F("err", err))
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		if errs > 0 {
			w.Logger.Info("coordinator reachable again",
				telemetry.F("worker", w.Name), telemetry.F("failed_attempts", errs))
		}
		errs = 0
		switch status {
		case http.StatusGone:
			w.logf("worker %s: sweep complete, exiting", w.Name)
			return nil
		case http.StatusNoContent:
			continue // the claim was held TTL/3 with no work; ask again
		}
		w.process(ctx, cl)
	}
}

// reportTimeout bounds the done-report flush after the worker's own ctx
// is cancelled (a shutting-down worker still delivers its last result,
// but not to a coordinator that hangs forever).
const reportTimeout = 30 * time.Second

// reportAttempts bounds retries of the done report on transient
// transport errors. Safe to retry: completion is idempotent (identical
// duplicates acknowledged) and the lease-expiry path recovers a lost
// report anyway — the retries just avoid re-running the unit.
const reportAttempts = 3

// process executes one claimed unit under a heartbeat.
func (w *Worker) process(ctx context.Context, cl claimResponse) {
	w.logf("worker %s: claimed %.12s", w.Name, cl.Key)
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx, cl)
	}()
	execStart := time.Now()
	result, err := w.Run(cl.Key, cl.Payload)
	stopHB()
	<-hbDone // the in-flight heartbeat request (if any) aborts with hbCtx
	if w.Tel != nil {
		observeUS(w.Tel.exec, time.Since(execStart))
		w.Tel.units.Inc()
	}
	atomic.AddUint64(&w.units, 1)
	errmsg := ""
	if err != nil {
		errmsg = err.Error()
		w.logf("worker %s: unit %.12s FAILED: %v", w.Name, cl.Key, err)
	} else {
		w.logf("worker %s: unit %.12s done", w.Name, cl.Key)
	}
	// Report even after a lost lease: the coordinator's exactly-once
	// merge acknowledges identical duplicates and refuses divergent
	// ones loudly. Deliberately detached from ctx (a cancelled worker
	// still flushes its in-flight result) but bounded in time.
	repCtx, cancel := context.WithTimeout(context.Background(), reportTimeout)
	defer cancel()
	postStart := time.Now()
	var derr error
	for attempt := 1; ; attempt++ {
		derr = w.post(repCtx, "/done", doneRequest{Worker: w.Name, Key: cl.Key, Result: result, Err: errmsg}, nil)
		if derr == nil || derr == errGone || attempt >= reportAttempts {
			break
		}
		w.Logger.Warn("done report failed, retrying",
			telemetry.F("worker", w.Name), telemetry.F("unit", cl.Key),
			telemetry.F("attempt", attempt), telemetry.F("err", derr))
		if !sleepCtx(repCtx, w.backoff(attempt)) {
			break
		}
	}
	if w.Tel != nil {
		observeUS(w.Tel.report, time.Since(postStart))
	}
	switch derr {
	case nil:
	case errGone:
		// The coordinator does not know the unit: it restarted since the
		// lease was granted and already had the result from the store.
		w.logf("worker %s: completion of %.12s not needed (coordinator restarted)", w.Name, cl.Key)
	default:
		w.logf("worker %s: reporting %.12s: %v", w.Name, cl.Key, derr)
	}
}

// heartbeatLoop extends the lease at a third of its TTL until the unit
// finishes (ctx cancelled) or the lease is gone. Requests are bound to
// ctx, so tearing the loop down also aborts an in-flight heartbeat — no
// goroutine or connection outlives the unit.
func (w *Worker) heartbeatLoop(ctx context.Context, cl claimResponse) {
	interval := time.Duration(cl.LeaseMs) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	for {
		if !sleepCtx(ctx, interval) {
			return
		}
		var resp heartbeatResponse
		err := w.post(ctx, "/heartbeat", heartbeatRequest{Worker: w.Name, Key: cl.Key, Report: w.Tel.Report()}, &resp)
		switch {
		case err == errGone:
			// Lease lost (expired, completed elsewhere, or granted by a
			// coordinator that has since restarted). The unit cannot be
			// aborted mid-simulation; finish and let the idempotent
			// completion sort it out.
			w.logf("worker %s: lease on %.12s lost", w.Name, cl.Key)
			return
		case err != nil && ctx.Err() != nil:
			return // torn down mid-request; not a heartbeat failure
		case err != nil:
			w.logf("worker %s: heartbeat %.12s: %v", w.Name, cl.Key, err)
			w.Logger.Warn("heartbeat failed, lease still ticking",
				telemetry.F("worker", w.Name), telemetry.F("unit", cl.Key), telemetry.F("err", err))
		}
	}
}

// claim asks for work. status is one of 200 (cl valid), 204 (held
// LeaseTTL/3 with no work) or 410 (sweep over).
func (w *Worker) claim(ctx context.Context) (cl claimResponse, status int, err error) {
	start := time.Now()
	status, err = w.postStatus(ctx, "/claim", claimRequest{Worker: w.Name, Report: w.Tel.Report()}, &cl)
	if err != nil {
		return claimResponse{}, 0, err
	}
	if w.Tel != nil {
		observeUS(w.Tel.claim, time.Since(start))
	}
	switch status {
	case http.StatusOK, http.StatusNoContent, http.StatusGone:
		return cl, status, nil
	}
	return claimResponse{}, 0, fmt.Errorf("sweepd: claim: unexpected status %d", status)
}

var errGone = fmt.Errorf("sweepd: gone")

// post sends one JSON request; 410 maps to errGone, other non-2xx to
// errors. resp may be nil.
func (w *Worker) post(ctx context.Context, path string, req interface{}, resp interface{}) error {
	status, err := w.postStatus(ctx, path, req, resp)
	if err != nil {
		return err
	}
	switch {
	case status == http.StatusGone:
		return errGone
	case status >= 300:
		return fmt.Errorf("sweepd: POST %s: status %d", path, status)
	}
	return nil
}

// postStatus sends one protocol request bound to ctx — cancelling ctx
// aborts the request in flight, which is what lets process tear down the
// heartbeat goroutine deterministically on every exit path.
func (w *Worker) postStatus(ctx context.Context, path string, req interface{}, resp interface{}) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := w.hc().Do(httpReq)
	if err != nil {
		return 0, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(io.LimitReader(httpResp.Body, maxBodyBytes)).Decode(resp); err != nil {
			return 0, err
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, 4096))
	}
	return httpResp.StatusCode, nil
}

// sleepCtx sleeps d or until ctx cancels; reports false on cancel.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
