package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tinydir"
	"tinydir/internal/runstore"
)

// The machines the workloads run on. scale128 is the paper's 128-core
// machine with 400-reference slices, the scale of BENCH_hotpath.json's
// Fig01At128; fleetScale is a 4-core machine with 200-reference slices,
// short enough that the sweep stack, not simulation, sets a fleet
// sweep's wall time.
var (
	scale128   = tinydir.Scale{Name: "hot128", Cores: 128, Refs: 400}
	fleetScale = tinydir.Scale{Name: "fleet4", Cores: 4, Refs: 200}
)

const (
	localWorkers     = 2 // concurrent simulations of the local sweeps (-j2)
	fleetWorkers     = 2 // RunSweepWorker instances on loopback
	fleetOutstanding = 8 // dispatched units in flight: 4 per worker (-serve -j 8)
	workerCache      = 64 << 20
)

// workload is one named input to the benchmark. setup runs before the
// measured passes (several times, the last one's state kept); pass runs
// one measured repetition.
type workload struct {
	name  string
	setup func(r *runner) error
	pass  func(r *runner) (passResult, error)
}

// passResult is what one pass produced beyond its ledger.
type passResult struct {
	wall          time.Duration
	led           *ledger
	simulated     int      // simulations the pass executed
	wantSimulated int      // simulations it must have executed
	problems      []string // failed output checks
}

var workloads = []workload{
	// Fig. 1 on the 128-core machine: 68 short cold-cache runs, so
	// per-run setup, pools, GC and the miss path dominate.
	{
		name:  "fig1-128",
		setup: func(r *runner) error { return r.warmup(scale128) },
		pass:  fig1Pass,
	},
	// Six paper-scale runs (128 cores x 8000 refs), warm and
	// hit-dominated: single-run simulator speed and the tiny tracker.
	{
		name:  "paper128-long",
		setup: func(r *runner) error { return r.warmup(scale128) },
		pass:  paperPass,
	},
	// The full figure plan through a coordinator and two loopback
	// workers into an empty store: the sweep stack's write path.
	{
		name:  "fleet-cold",
		setup: fleetSetup,
		pass:  func(r *runner) (passResult, error) { return fleetPass(r, false) },
	},
	// The same plan re-dispatched against the populated store: every
	// unit is a worker store read, no simulation.
	{
		name:  "fleet-warm",
		setup: fleetSetup,
		pass:  func(r *runner) (passResult, error) { return fleetPass(r, true) },
	},
}

// warmup runs one simulation on the workload's machine, as the first
// run of any process does: it pays the first allocation of the
// machine's pools.
func (r *runner) warmup(sc tinydir.Scale) error {
	o := r.seeded(tinydir.Options{App: tinydir.App("bodytrack"), Scheme: tinydir.SparseDirectory(2), Scale: sc})
	start := time.Now()
	res, err := runLocal(o)
	if r.firstRun == 0 {
		r.firstRun = time.Since(start)
	}
	if err != nil {
		return err
	}
	if res.Metrics.Cycles == 0 {
		return errors.New("warm-up run simulated nothing")
	}
	return nil
}

// runLocal is tinydir.Run with a panic reported as an error.
func runLocal(o tinydir.Options) (res tinydir.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	return tinydir.Run(o), nil
}

// dispatch wraps a suite's DispatchFunc: it applies the workload seed,
// times the call into the ledger and, when tracing, records a "unit"
// span keyed by key(o).
func (r *runner) dispatch(led *ledger, key func(tinydir.Options) string, inner tinydir.DispatchFunc) tinydir.DispatchFunc {
	return func(o tinydir.Options) (tinydir.Result, bool, error) {
		o = r.seeded(o)
		start := time.Now()
		res, simulated, err := inner(o)
		end := time.Now()
		led.add(o, res, err, end.Sub(start))
		if r.tr != nil {
			r.tr.add(span{Name: "unit", Req: key(o), Start: r.tr.at(start), End: r.tr.at(end)})
		}
		return res, simulated, err
	}
}

func localDispatch(o tinydir.Options) (tinydir.Result, bool, error) {
	res, err := runLocal(o)
	return res, err == nil, err
}

func fig1Pass(r *runner) (passResult, error) {
	led := &ledger{}
	start := time.Now()
	s := tinydir.NewSuite(scale128)
	s.Workers = localWorkers
	s.Dispatch = r.dispatch(led, label, localDispatch)
	s.Fig1()
	res := passResult{wall: time.Since(start), led: led, simulated: s.Runs(), wantSimulated: len(led.entries)}
	if n := len(s.Failures()); n > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d quarantined runs", n))
	}
	return res, nil
}

// paperApps x paperSchemes are the paper-scale runs, executed serially.
var (
	paperApps    = []string{"bodytrack", "barnes", "SPECjbb"}
	paperSchemes = []tinydir.Scheme{tinydir.SparseDirectory(2), tinydir.TinyDirectory(1.0/256, true, true)}
)

func paperPass(r *runner) (passResult, error) {
	led := &ledger{}
	start := time.Now()
	for _, app := range paperApps {
		for _, sc := range paperSchemes {
			o := r.seeded(tinydir.Options{App: tinydir.App(app), Scheme: sc, Scale: tinydir.ScaleFull})
			t0 := time.Now()
			res, err := runLocal(o)
			t1 := time.Now()
			led.add(o, res, err, t1.Sub(t0))
			if r.tr != nil {
				r.tr.add(span{Name: "unit", Req: label(o), Start: r.tr.at(t0), End: r.tr.at(t1)})
			}
		}
	}
	return passResult{wall: time.Since(start), led: led, simulated: len(led.entries), wantSimulated: len(led.entries)}, nil
}

// fleetSetup builds the local -j2 oracle: the full figure plan run in
// process into a fresh directory store. Its CSV is what every fleet
// pass must reproduce byte for byte, and its store is the one
// fleet-warm's coordinator serves.
func fleetSetup(r *runner) error {
	if err := r.warmup(fleetScale); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.work, "oracle-")
	if err != nil {
		return err
	}
	store, err := tinydir.NewRunStore(dir)
	if err != nil {
		return err
	}
	led := &ledger{}
	start := time.Now()
	s := tinydir.NewSuite(fleetScale)
	s.Workers = localWorkers
	s.Dispatch = r.dispatch(led, label, func(o tinydir.Options) (tinydir.Result, bool, error) {
		return tinydir.RunWithStore(o, store, false), true, nil
	})
	csv, err := figuresCSV(s.AllFigures())
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if n := len(s.Failures()); n > 0 {
		return fmt.Errorf("oracle sweep quarantined %d runs", n)
	}
	if n, why := led.failures(); n > 0 {
		return fmt.Errorf("oracle sweep: %d bad runs, first: %s", n, why[0])
	}
	if r.oracle.dir != "" {
		os.RemoveAll(r.oracle.dir)
	}
	r.oracle = oracle{dir: dir, csv: csv, digest: led.digest()}
	r.oracleWalls = append(r.oracleWalls, ms(wall))
	return nil
}

func figuresCSV(figs []tinydir.Figure) ([]byte, error) {
	var b bytes.Buffer
	for _, f := range figs {
		if err := f.WriteCSV(&b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// fleetPass runs the full figure plan through an in-process coordinator
// serving a Verified directory store on loopback and two RunSweepWorker
// workers. warm serves the oracle's populated store; cold an empty one.
func fleetPass(r *runner, warm bool) (passResult, error) {
	dir := r.oracle.dir
	if !warm {
		var err error
		if dir, err = os.MkdirTemp(r.work, "cold-"); err != nil {
			return passResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, err
	}
	led := &ledger{}
	start := time.Now()
	store, verified, err := r.openStore(dir)
	if err != nil {
		ln.Close()
		return passResult{}, err
	}
	s := tinydir.NewSuite(fleetScale)
	s.Workers = fleetOutstanding
	mux := http.NewServeMux()
	svc := tinydir.AttachSweepService(s, store, mux)
	s.Dispatch = r.dispatch(led, store.Key, s.Dispatch)
	var h http.Handler = mux
	if r.tr != nil {
		h = timedHandler{next: mux, tr: r.tr}
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	werrs := make([]error, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = tinydir.RunSweepWorker(ctx, tinydir.WorkerConfig{
				Coordinator: "http://" + ln.Addr().String(),
				Name:        fmt.Sprintf("w%d", i),
				CacheBytes:  workerCache,
			})
		}(i)
	}
	csv, csvErr := figuresCSV(s.AllFigures())
	wall := time.Since(start)
	st := svc.Coord.Status()
	svc.Close()
	cancel()
	wg.Wait()
	srv.Close()
	if csvErr != nil {
		return passResult{}, csvErr
	}
	res := passResult{wall: wall, led: led, simulated: s.Runs(), wantSimulated: len(led.entries)}
	if warm {
		res.wantSimulated = 0
	}
	if n := len(s.Failures()); n > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d quarantined runs", n))
	}
	if st.Failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d failed units", st.Failed))
	}
	if q := verified.Counters().Quarantined; q > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d store entries quarantined", q))
	}
	if !bytes.Equal(csv, r.oracle.csv) {
		res.problems = append(res.problems, "fleet CSV differs from the local -j2 oracle")
	}
	for i, err := range werrs {
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("worker %d: %v", i, err))
		}
	}
	return res, nil
}

// openStore opens the coordinator's store on dir: a Verified directory
// store, as tinydir.NewRunStore builds it, with the blob layer and the
// whole stack timed when tracing.
func (r *runner) openStore(dir string) (*tinydir.RunStore, *runstore.Verified, error) {
	d, err := runstore.NewDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if r.tr == nil {
		v := runstore.NewVerified(d)
		return tinydir.NewRunStoreWithBackend(v), v, nil
	}
	var v *runstore.Verified
	b := timedStack(r.tr, d, func(inner runstore.Backend) runstore.Backend {
		v = runstore.NewVerified(inner)
		return v
	})
	return tinydir.NewRunStoreWithBackend(b), v, nil
}

// oracle is the local sweep fleet passes are checked against.
type oracle struct {
	dir    string
	csv    []byte
	digest string
}

func byName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workDir(root, name string) (string, error) {
	return os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-"+name+"-")
}
