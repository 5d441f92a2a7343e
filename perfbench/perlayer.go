package main

import (
	"runtime"
	"sort"
	"time"

	"tinydir/internal/trace"
)

// genSamples bounds how many of a pass's run configurations have their
// trace generation timed separately.
const genSamples = 8

// perLayer derives the traced run's per-layer metrics: host CPU by
// layer from the profile, the deterministic work counts of the results,
// and the spans the wrappers recorded. Every ratio's base (refs, units,
// profile samples) is reported beside it.
func perLayer(r *runner, plain, tr *measured, prof []byte, cpu, wall time.Duration) ([]metric, error) {
	byLayer, samples, err := cpuByLayer(prof)
	if err != nil {
		return nil, err
	}
	refs, units := float64(tr.refs), float64(tr.units)
	out := []metric{
		{"base.refs", refs, "count"},
		{"base.units", units, "count"},
		{"base.passes", float64(len(tr.walls)), "count"},
		{"base.cpu_samples", float64(samples), "count"},
		{"base.cpu_s", cpu.Seconds(), "s"},
	}
	for _, l := range append(append([]string{}, simLayers...), restLayers...) {
		out = append(out, metric{l + ".cpu_ns_per_ref", ratio(float64(byLayer[l]), refs), "ns/ref"})
	}
	for _, l := range serviceLayers {
		out = append(out, metric{l + ".cpu_us_per_unit", ratio(float64(byLayer[l])/1e3, units), "us/unit"})
	}
	out = append(out,
		metric{"idle_frac", 1 - ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio"},
		metric{"tracing.overhead_s", tr.walls.median() - plain.walls.median(), "s"},
	)
	out = append(out, tr.last.workCounts()...)
	out = append(out, r.spanMetrics(tr, plain)...)
	return out, nil
}

// spanMetrics derives the span-timed per-layer metrics.
func (r *runner) spanMetrics(tr, plain *measured) []metric {
	t := r.tr
	units := float64(tr.units)
	var run sample // local runs: the Run or Dispatch call; fleet: claim to done
	unitSpans := t.named("unit")
	claims, dones := t.named("http.claim"), t.named("http.done")
	fleet := len(claims) > 0

	// Per unit of a pass: when it was dispatched, first claimed, reported
	// done, and when the dispatch returned. Every pass dispatches the
	// same keys, so the pass span is part of the identity.
	type life struct{ dispatch, dispatched, claimed, done int64 }
	type unitID struct {
		pass int64
		key  string
	}
	lives := map[unitID]*life{}
	lifeOf := func(s span) *life {
		id := unitID{s.Parent, s.Req}
		if lives[id] == nil {
			lives[id] = &life{-1, -1, -1, -1}
		}
		return lives[id]
	}
	for _, s := range unitSpans {
		if !fleet {
			run = append(run, ms(s.dur()))
		}
		l := lifeOf(s)
		l.dispatch, l.dispatched = s.Start, s.End
	}
	var empty, expiries int
	for _, s := range claims {
		switch {
		case s.Status == 204:
			empty++
		case s.Req != "" && lifeOf(s).claimed >= 0:
			expiries++ // a unit claimed again: its lease lapsed
		case s.Req != "":
			lifeOf(s).claimed = s.End
		}
	}
	for _, s := range dones {
		if l := lifeOf(s); l.done < 0 {
			l.done = s.Start
		}
	}
	var wait, exec, merge sample
	for _, l := range lives {
		if l.claimed >= 0 && l.dispatch >= 0 {
			wait = append(wait, ms(time.Duration(l.claimed-l.dispatch)))
		}
		if l.claimed >= 0 && l.done >= 0 {
			exec = append(exec, ms(time.Duration(l.done-l.claimed)))
		}
		if l.done >= 0 && l.dispatched >= 0 {
			merge = append(merge, ms(time.Duration(l.dispatched-l.done)))
		}
	}
	if fleet {
		run = exec
	}

	var gen sample
	if tr.simulated > 0 {
		gen = timeGeneration(tr.last)
	}

	var gets, puts, verify sample
	var putBytes, ckptBytes float64
	for _, s := range t.named("store.get") {
		gets = append(gets, us(s.dur()))
		if s.Hit && s.Self >= 0 {
			verify = append(verify, us(time.Duration(s.Self)))
		}
	}
	for _, s := range t.named("store.put") {
		puts = append(puts, us(s.dur()))
	}
	for _, s := range t.named("dir.put") {
		putBytes += float64(s.Bytes)
		if s.Kind == "checkpoints" {
			ckptBytes += float64(s.Bytes)
		}
	}
	httpUs := func(name string) float64 {
		var x sample
		for _, s := range t.named("http." + name) {
			x = append(x, us(s.dur()))
		}
		return x.median()
	}
	requests := len(t.withPrefix("http."))
	p := func(x sample, q float64) float64 { v, _ := x.rank(q); return v }
	overhead := 0.0
	if fleet && tr.units > 0 {
		perPass := units / float64(len(tr.walls))
		overhead = (plain.walls.median()*1e3 - r.oracleWalls.median()) / perPass
	}
	return []metric{
		{"trace.gen_ms_per_run", gen.median(), "ms"},
		{"tinydir.run_ms_p50", run.median(), "ms"},
		{"tinydir.run_ms_max", run.max(), "ms"},
		{"tinydir.first_run_ms", ms(r.firstRun), "ms"},
		{"runstore.get_us_p50", gets.median(), "us"},
		{"runstore.get_us_p90", p(gets, 0.9), "us"},
		{"runstore.put_us_p50", puts.median(), "us"},
		{"runstore.put_us_p90", p(puts, 0.9), "us"},
		{"runstore.verify_us_p50", verify.median(), "us"},
		{"runstore.bytes_per_unit", ratio(putBytes, units), "B/unit"},
		{"snapshot.checkpoint_bytes_per_unit", ratio(ckptBytes, units), "B/unit"},
		{"http.claim_us_p50", httpUs("claim"), "us"},
		{"http.done_us_p50", httpUs("done"), "us"},
		{"http.store_get_us_p50", httpUs("store_get"), "us"},
		{"http.store_put_us_p50", httpUs("store_put"), "us"},
		{"http.requests_per_unit", ratio(float64(requests), units), "count/unit"},
		{"sweepd.claim_empty_frac", ratio(float64(empty), float64(len(claims))), "ratio"},
		{"sweepd.queue_wait_ms_p50", wait.median(), "ms"},
		{"sweepd.queue_wait_ms_p90", p(wait, 0.9), "ms"},
		{"sweepd.exec_ms_p50", exec.median(), "ms"},
		{"sweepd.merge_ms_p50", merge.median(), "ms"},
		{"sweepd.overhead_ms_per_unit", overhead, "ms/unit"},
		{"sweepd.lease_expiries", float64(expiries), "count"},
	}
}

// timeGeneration times the trace generation of up to genSamples of a
// ledger's run configurations: the same generator call each simulation
// makes before it starts.
func timeGeneration(led *ledger) sample {
	es := append([]entry(nil), led.entries...)
	sort.Slice(es, func(i, j int) bool { return label(es[i].opts) < label(es[j].opts) })
	var out sample
	for i := 0; i < len(es) && len(out) < genSamples; i += 1 + len(es)/genSamples {
		o := es[i].opts
		start := time.Now()
		trace.NewGen(o.App, o.Scale.Cores).Traces(o.Scale.Refs)
		out = append(out, ms(time.Since(start)))
	}
	return out
}
