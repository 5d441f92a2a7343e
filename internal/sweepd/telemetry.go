package sweepd

// Fleet telemetry. The coordinator exports its lease-layer state —
// queue depth, claims, expiries, completions, conflict refusals, a unit
// wall-clock histogram — and a per-worker health table with a straggler
// detector (a worker whose mean unit wall exceeds StragglerFactor times
// the fleet median is flagged). Workers measure their own claim/
// execute/report latencies and push a compact snapshot with every claim
// and heartbeat, so the coordinator's /status (and the dashboard built
// on it) shows the whole fleet from one page without scraping N
// machines.
//
// Everything is nil-off: a Coordinator without EnableMetrics and a
// Worker without Telemetry run the identical instruction stream they
// always have, up to the nil-receiver branch inside each instrument
// (pinned by BenchmarkCoordinatorNoTelemetry / the alloc test).

import (
	"time"

	"tinydir/internal/telemetry"
)

// DefaultStragglerFactor flags a worker whose mean unit wall exceeds
// this multiple of the fleet median. 3x is deliberately loose: unit
// walls vary legitimately (different schemes simulate at different
// speeds), and a flapping straggler badge is worse than a late one.
const DefaultStragglerFactor = 3.0

// coordMetrics is the coordinator's instrument set; all fields are
// nil-safe telemetry handles, so the zero value is "telemetry off".
type coordMetrics struct {
	claims        *telemetry.Counter
	claimsEmpty   *telemetry.Counter
	heartbeats    *telemetry.Counter
	completions   *telemetry.Counter
	dupIdentical  *telemetry.Counter
	conflicts     *telemetry.Counter
	leaseExpiries *telemetry.Counter
	unitFailures  *telemetry.Counter
	unitWallMS    *telemetry.Hist
}

// EnableMetrics registers the coordinator's series on reg: the counters
// above plus live gauges for queue depth, lease/done/failed counts,
// fleet size and straggler count. Call once, before serving. A nil reg
// leaves telemetry off.
func (c *Coordinator) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.tel = coordMetrics{
		claims:        reg.Counter("sweepd_claims_total", "work-unit claims granted"),
		claimsEmpty:   reg.Counter("sweepd_claims_empty_total", "claims answered 204: held LeaseTTL/3 with no work available"),
		heartbeats:    reg.Counter("sweepd_heartbeats_total", "lease heartbeats accepted"),
		completions:   reg.Counter("sweepd_completions_total", "units completed successfully"),
		dupIdentical:  reg.Counter("sweepd_duplicates_identical_total", "byte-identical duplicate completions acknowledged"),
		conflicts:     reg.Counter("sweepd_conflicts_total", "differing duplicate completions refused (ErrDiffers/409)"),
		leaseExpiries: reg.Counter("sweepd_lease_expiries_total", "leases lapsed and requeued (or failed terminally)"),
		unitFailures:  reg.Counter("sweepd_unit_failures_total", "units failed terminally (worker-reported or max expiries)"),
		unitWallMS:    reg.Hist("sweepd_unit_wall_ms", "wall-clock milliseconds from claim to completion"),
	}
	count := func(st unitState) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, r := range c.recs {
				if r.st == st {
					n++
				}
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("sweepd_queue_depth", "units pending (submitted, unleased)", count(statePending))
	reg.GaugeFunc("sweepd_units_leased", "units currently leased to workers", count(stateLeased))
	reg.GaugeFunc("sweepd_units_done", "units completed", count(stateDone))
	reg.GaugeFunc("sweepd_units_failed", "units failed terminally", count(stateFailed))
	reg.GaugeFunc("sweepd_units_total", "units submitted this sweep", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.recs))
	})
	reg.GaugeFunc("sweepd_workers", "workers seen by the coordinator", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	reg.GaugeFunc("sweepd_stragglers", "workers currently flagged by the straggler detector", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, flagged := range c.stragglersLocked() {
			if flagged {
				n++
			}
		}
		return float64(n)
	})
}

// stragglerFactor returns the configured threshold multiple.
func (c *Coordinator) stragglerFactor() float64 {
	if c.StragglerFactor > 0 {
		return c.StragglerFactor
	}
	return DefaultStragglerFactor
}

// meanWallLocked is one worker's mean unit wall, or 0 with no data.
func (w *workerInfo) meanWall() time.Duration {
	if w.UnitsWalled == 0 {
		return 0
	}
	return w.UnitWallSum / time.Duration(w.UnitsWalled)
}

// stragglersLocked flags workers whose mean unit wall exceeds
// StragglerFactor times the fleet median. Needs at least two workers
// with completed units — one worker has no fleet to straggle behind.
// Callers hold mu.
func (c *Coordinator) stragglersLocked() map[string]bool {
	flagged := map[string]bool{}
	means := make([]time.Duration, 0, len(c.workers))
	for _, w := range c.workers {
		if w.UnitsWalled > 0 {
			means = append(means, w.meanWall())
		}
	}
	if len(means) < 2 {
		return flagged
	}
	median := durationMedian(means)
	if median <= 0 {
		return flagged
	}
	bar := time.Duration(float64(median) * c.stragglerFactor())
	for name, w := range c.workers {
		if w.UnitsWalled > 0 && w.meanWall() > bar {
			flagged[name] = true
		}
	}
	return flagged
}

// durationMedian: the usual even-count average of the two middle
// elements; input order does not matter.
func durationMedian(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ { // insertion sort: fleets are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// WorkerReport is the compact self-telemetry snapshot a worker pushes
// with each claim and heartbeat: unit throughput, its claim/execute/
// report latency quantiles, and its store cache-tier counters. All
// latencies are milliseconds (quantiles from log2 bucket bounds, the
// obs.Hist discipline).
type WorkerReport struct {
	Units       uint64
	ClaimP95Ms  float64
	ExecMeanMs  float64
	ExecP95Ms   float64
	ReportP95Ms float64
	StoreHits   uint64 `json:",omitempty"`
	StoreMisses uint64 `json:",omitempty"`
}

// WorkerTelemetry instruments one Worker: claim round-trip, unit
// execution wall, and done-report round-trip histograms (microsecond
// resolution), optionally registered on a registry as worker_* series.
// Nil means worker telemetry off: no recording, no report pushed.
type WorkerTelemetry struct {
	claim, exec, report *telemetry.Hist
	units               *telemetry.Counter
	// StoreStats, when set, feeds the report's cache-tier counters
	// (tinydir wires the worker-side LRU here).
	StoreStats func() (hits, misses uint64)
}

// NewWorkerTelemetry builds the instrument set. With a registry the
// series are registered (worker_claim_duration_us, worker_exec_duration_us,
// worker_report_duration_us, worker_units_total); with nil they are
// standalone, feeding only the pushed WorkerReport.
func NewWorkerTelemetry(reg *telemetry.Registry) *WorkerTelemetry {
	if reg == nil {
		return &WorkerTelemetry{
			claim: &telemetry.Hist{}, exec: &telemetry.Hist{}, report: &telemetry.Hist{},
			units: &telemetry.Counter{},
		}
	}
	return &WorkerTelemetry{
		claim:  reg.Hist("worker_claim_duration_us", "claim round-trip latency"),
		exec:   reg.Hist("worker_exec_duration_us", "unit execution wall clock"),
		report: reg.Hist("worker_report_duration_us", "done-report round-trip latency"),
		units:  reg.Counter("worker_units_total", "units executed by this worker"),
	}
}

// Report snapshots the instruments into the wire form. Nil-safe.
func (wt *WorkerTelemetry) Report() *WorkerReport {
	if wt == nil {
		return nil
	}
	claim := wt.claim.Snapshot()
	exec := wt.exec.Snapshot()
	rep := wt.report.Snapshot()
	r := &WorkerReport{
		Units:       wt.units.Value(),
		ClaimP95Ms:  float64(claim.P95) / 1e3,
		ExecMeanMs:  exec.Mean() / 1e3,
		ExecP95Ms:   float64(exec.P95) / 1e3,
		ReportP95Ms: float64(rep.P95) / 1e3,
	}
	if wt.StoreStats != nil {
		r.StoreHits, r.StoreMisses = wt.StoreStats()
	}
	return r
}

// observe records one duration in microseconds on a possibly-nil hist.
func observeUS(h *telemetry.Hist, d time.Duration) {
	h.Observe(uint64(d.Microseconds()))
}
