// Command perfbench measures what regenerating the paper's figures costs
// on the host: wall time, simulated references per second, heap and
// memory per figure sweep, per paper-scale run and per sweep-fleet work
// unit, with per-layer CPU and wait attribution from a separate traced
// run. See README.md in this directory for the workloads and metrics.
//
//	bash perfbench/run.sh --workload fig1-128 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
// an output check fails and 2 when the benchmark cannot run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"tinydir"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// runner carries one invocation's settings and the state its
// workload's setup leaves for the passes.
type runner struct {
	seed     uint64
	work     string  // scratch directory, removed at exit
	tr       *tracer // nil: tracing off
	firstRun time.Duration

	oracle      oracle
	oracleWalls sample // ms, one per setup
}

// seeded offsets the profile seed by the workload seed (0 keeps the
// stock profiles).
func (r *runner) seeded(o tinydir.Options) tinydir.Options {
	o.App.Seed += r.seed
	return o
}

type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
		name     = flag.String("workload", "", "workload name (fig1-128, paper128-long, fleet-cold, fleet-warm)")
		seed     = flag.Uint64("seed", 0, "workload seed, added to every profile's seed")
		seconds  = flag.Float64("seconds", 15, "measure for at least this long")
		traceArg = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced, end-to-end metrics")
	)
	flag.Parse()
	wl, ok := byName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	work, err := workDir(*root, wl.name)
	if err != nil {
		fatalf("%v", err)
	}
	r := &runner{seed: *seed, work: work}
	code := run(r, wl, time.Duration(*seconds*float64(time.Second)), *traceArg == 1, *root)
	os.RemoveAll(work)
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// measured accumulates the passes of one mode (traced or not).
type measured struct {
	walls      sample // s, per pass
	refRates   sample // refs/s, per pass
	unitRates  sample // units/s, per pass
	lat        sample // unit latency, ms, every unit
	refs       uint64
	units      int
	simulated  int
	mallocs    uint64
	allocBytes uint64
	digests    []string
	attempted  int
	failed     int
	problems   []string
	last       *ledger
}

func (m *measured) add(p passResult, ms0, ms1 *runtime.MemStats, r *runner) {
	m.walls = append(m.walls, p.wall.Seconds())
	m.refRates = append(m.refRates, float64(p.led.refs())/p.wall.Seconds())
	m.unitRates = append(m.unitRates, float64(len(p.led.entries))/p.wall.Seconds())
	m.lat = append(m.lat, p.led.lat...)
	m.refs += p.led.refs()
	m.units += len(p.led.entries)
	m.simulated += p.simulated
	m.mallocs += ms1.Mallocs - ms0.Mallocs
	m.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	m.attempted += len(p.led.entries)
	n, why := p.led.failures()
	m.failed += n
	m.problems = append(m.problems, why...)
	if p.simulated != p.wantSimulated {
		m.problems = append(m.problems, fmt.Sprintf("pass simulated %d runs, want %d", p.simulated, p.wantSimulated))
		m.failed++
	}
	if len(p.problems) > 0 {
		m.problems = append(m.problems, p.problems...)
		m.failed += len(p.problems)
	}
	d := p.led.digest()
	if r.oracle.digest != "" && d != r.oracle.digest {
		m.problems = append(m.problems, "results differ from the local -j2 oracle's")
		m.failed++
	}
	if len(m.digests) > 0 && d != m.digests[0] {
		m.problems = append(m.problems, "results differ between passes")
		m.failed++
	}
	m.digests = append(m.digests, d)
	m.last = p.led
}

// onePass runs a pass between two heap snapshots, after a collection so
// every pass starts from the same heap.
func onePass(r *runner, wl workload, m *measured) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := wl.pass(r)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m.add(p, &before, &after, r)
	return nil
}

func run(r *runner, wl workload, budget time.Duration, traced bool, root string) int {
	mach := machineInfo()
	fmt.Printf("machine: %s\n", mach)
	var setups sample
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := wl.setup(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", wl.name, err)
			return 2
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var plain, tracedM measured
	var cpuProf bytes.Buffer
	var cpu0, cpu1 time.Duration
	var tracedWall time.Duration
	begin := time.Now()
	if !traced {
		for more(begin, budget, plain.walls) {
			if err := onePass(r, wl, &plain); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
				return 2
			}
		}
	} else {
		// One untraced pass as the overhead reference, then traced
		// passes under the CPU profiler for the rest of the budget.
		if err := onePass(r, wl, &plain); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 2
		}
		r.tr = newTracer()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 2
		}
		cpu0 = cpuTime()
		t0 := time.Now()
		for more(begin, budget, tracedM.walls) {
			id := r.tr.beginPass()
			ps := time.Now()
			err := onePass(r, wl, &tracedM)
			r.tr.endPass(id, ps, time.Now())
			if err != nil {
				pprof.StopCPUProfile()
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
				return 2
			}
		}
		tracedWall = time.Since(t0)
		cpu1 = cpuTime()
		pprof.StopCPUProfile()
	}

	all := plain
	if traced {
		all.attempted += tracedM.attempted
		all.failed += tracedM.failed
		all.problems = append(all.problems, tracedM.problems...)
		all.digests = append(all.digests, tracedM.digests...)
	}
	if len(all.digests) > 1 && all.digests[len(all.digests)-1] != all.digests[0] {
		all.problems = append(all.problems, "traced and untraced results differ")
		all.failed++
	}

	e2e := endToEnd(&plain, setups)
	fmt.Printf("workload: %s (seed %d, %d passes, %d units, %d refs)\n", wl.name, r.seed, len(plain.walls), plain.units, plain.refs)
	fmt.Printf("results_sha256: %s\n", all.digests[0])
	fmt.Printf("pass_wall_s: %.4g\n", plain.walls)
	for _, m := range e2e {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	// Unit latency is printed, not gated: on the fleet workloads its
	// run-to-run spread is wider than any bound the result line allows.
	fmt.Printf("  %-34s %14.6g ms (n=%d)\n", "unit_ms_p50", plain.lat.median(), len(plain.lat))
	if p90, ok := plain.lat.rank(0.9); ok {
		fmt.Printf("  %-34s %14.6g ms (n=%d)\n", "unit_ms_p90", p90, len(plain.lat))
	} else {
		fmt.Printf("  %-34s %14s    (n=%d; a p90 needs %d samples)\n", "unit_ms_p90", "n/a", len(plain.lat), 10*minBeyond)
	}
	fmt.Printf("  %-34s %14.6g (failed %d of %d attempted)\n", "failed_frac", ratio(float64(all.failed), float64(all.attempted)), all.failed, all.attempted)
	for _, p := range all.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}

	out := e2e
	if traced {
		var err error
		out, err = perLayer(r, &plain, &tracedM, cpuProf.Bytes(), cpu1-cpu0, tracedWall)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		for _, m := range out {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, r.seed))
		if err := r.tr.writeJSONL(path, map[string]any{"workload": wl.name, "seed": r.seed, "machine": mach}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans: %s\n", path)
		}
	}

	correct := all.failed == 0
	res := map[string]any{
		"correct":   correct,
		"attempted": all.attempted,
		"failed":    all.failed,
		"metrics":   metricsJSON(out),
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

// more reports whether to start another pass: always the first, then
// while the budget would still be overrun by less than half a pass.
func more(begin time.Time, budget time.Duration, walls sample) bool {
	if len(walls) == 0 {
		return true
	}
	half := time.Duration(walls[len(walls)-1] * float64(time.Second) / 2)
	return time.Since(begin)+half < budget
}

func metricsJSON(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// endToEnd computes the metrics a user of the figure pipeline sees.
func endToEnd(m *measured, setups sample) []metric {
	return []metric{
		{"wall_s", m.walls.median(), "s"},
		{"refs_per_s", m.refRates.median(), "1/s"},
		{"units_per_s", m.unitRates.median(), "1/s"},
		{"allocs_per_ref", ratio(float64(m.mallocs), float64(m.refs)), "count"},
		{"bytes_per_ref", ratio(float64(m.allocBytes), float64(m.refs)), "B"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"setup_s", setups.median(), "s"},
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineInfo names the host a result was measured on: wall numbers
// are only comparable on the same machine.
func machineInfo() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
