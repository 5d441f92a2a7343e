package main

// The ledger of one pass: every run or unit the pass produced, with its
// options, result and latency. The output checks and the deterministic
// work counts are computed from it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"tinydir"
)

type entry struct {
	opts tinydir.Options
	res  tinydir.Result
	err  error
}

// label names a run the way a figure suite keys it.
func label(o tinydir.Options) string {
	l := fmt.Sprintf("%s|%s|%s", o.App.Name, o.Scheme, o.Scale.Name)
	if o.Scale.HalveHierarchy {
		l += "|halved"
	}
	return l
}

type ledger struct {
	mu      sync.Mutex
	entries []entry
	lat     sample // per-unit latency, ms
}

func (l *ledger) add(o tinydir.Options, r tinydir.Result, err error, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, entry{opts: o, res: r, err: err})
	l.lat = append(l.lat, ms(d))
}

// refs is the number of simulated references the pass's results cover:
// cores x refs per run, whether the run simulated or was served.
func (l *ledger) refs() uint64 {
	var n uint64
	for _, e := range l.entries {
		n += uint64(e.opts.Scale.Cores) * uint64(e.opts.Scale.Refs)
	}
	return n
}

// failures counts units that returned an error or whose result did not
// retire exactly cores x refs references.
func (l *ledger) failures() (n int, why []string) {
	for _, e := range l.entries {
		m := e.res.Metrics
		want := uint64(e.opts.Scale.Cores) * uint64(e.opts.Scale.Refs)
		switch got := m.L1Hits + m.L2Hits + m.PrivateMisses; {
		case e.err != nil:
			n++
			why = append(why, fmt.Sprintf("%s: %v", label(e.opts), e.err))
		case got != want:
			n++
			why = append(why, fmt.Sprintf("%s: retired %d references, want %d", label(e.opts), got, want))
		}
	}
	return n, why
}

// digest is a sha256 over every result's label and Metrics, in label
// order: two commits whose simulated statistics agree print the same
// digest for the same workload and seed.
func (l *ledger) digest() string {
	es := append([]entry(nil), l.entries...)
	sort.Slice(es, func(i, j int) bool { return label(es[i].opts) < label(es[j].opts) })
	h := sha256.New()
	for _, e := range es {
		b, err := json.Marshal(e.res.Metrics)
		if err != nil {
			panic(err) // Metrics is plain data
		}
		fmt.Fprintf(h, "%s %s\n", label(e.opts), b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workCounts are the deterministic simulated-work ratios over a pass's
// results, named by the layer that does the work.
func (l *ledger) workCounts() []metric {
	var t struct {
		refs, l1, l2, tagReads, llcAcc, llcMiss, fwd, nack, backInv, lengthened uint64
		byteHops, dramR, dramW, rowHits, victims, tinyHits, tinyAllocs          uint64
	}
	for _, e := range l.entries {
		m := e.res.Metrics
		t.refs += m.L1Hits + m.L2Hits + m.PrivateMisses
		t.l1 += m.L1Hits
		t.l2 += m.L2Hits
		t.tagReads += m.LLCTagReads
		t.llcAcc += m.LLCAccesses
		t.llcMiss += m.LLCMisses
		t.fwd += m.Forwards
		t.nack += m.Nacks
		t.backInv += m.BackInvals
		t.lengthened += m.LengthenedCode + m.LengthenedData
		t.byteHops += m.TotalTraffic()
		t.dramR += m.DRAMReads
		t.dramW += m.DRAMWrites
		t.rowHits += m.DRAMRowHits
		t.victims += m.Tracker["dir.victims"]
		t.tinyHits += m.Tracker["tiny.hits"]
		t.tinyAllocs += m.Tracker["tiny.allocs"]
	}
	refs, kref := float64(t.refs), float64(t.refs)/1000
	return []metric{
		{"cache.l1_hit_frac", ratio(float64(t.l1), refs), "ratio"},
		{"cache.l2_hit_frac", ratio(float64(t.l2), refs), "ratio"},
		{"cache.llc_tag_reads_per_ref", ratio(float64(t.tagReads), refs), "count/ref"},
		{"cache.llc_miss_frac", ratio(float64(t.llcMiss), float64(t.llcAcc)), "ratio"},
		{"system.forwards_per_kref", ratio(float64(t.fwd), kref), "count/kref"},
		{"system.nacks_per_kref", ratio(float64(t.nack), kref), "count/kref"},
		{"system.back_invals_per_kref", ratio(float64(t.backInv), kref), "count/kref"},
		{"system.lengthened_frac", ratio(float64(t.lengthened), float64(t.llcAcc)), "ratio"},
		{"mesh.byte_hops_per_ref", ratio(float64(t.byteHops), refs), "byte-hop/ref"},
		{"dram.reads_per_kref", ratio(float64(t.dramR), kref), "count/kref"},
		{"dram.row_hit_frac", ratio(float64(t.rowHits), float64(t.dramR+t.dramW)), "ratio"},
		{"dir.victims_per_kref", ratio(float64(t.victims), kref), "count/kref"},
		{"core.tiny_hits_per_alloc", ratio(float64(t.tinyHits), float64(t.tinyAllocs)), "count/alloc"},
	}
}
