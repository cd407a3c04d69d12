// Command bench is the repo's benchmark: six workloads, from plan-bound
// batch jobs to a sharded sliding window that evicts on every ingest, each
// measured end to end (tracing off) and, in a separate traced run, layer
// by layer from outside the production packages. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one invocation asked for.
type runConfig struct {
	seed    int64
	seconds time.Duration
	quick   bool
	outDir  string // where traces go
}

// open and sat are the serve workloads' phase lengths.
func (c runConfig) open() time.Duration { return time.Duration(openShare * float64(c.seconds)) }
func (c runConfig) sat() time.Duration  { return c.seconds - c.open() }

// runner is one set-up instance of a workload.
type runner interface {
	// measure runs the timed end-to-end section with nothing of the
	// bench's in the request path, then the oracles.
	measure(cfg runConfig, res *result)
	// trace runs the fixed-operation-count layer walk.
	trace(cfg runConfig, res *result, rec *spanRecorder)
	close()
}

type workload struct {
	name  string
	why   string
	setup func(cfg runConfig, traced bool) (runner, error)
}

var workloads = []workload{
	{"batch-small", "20k-point 2-D job where plan+dshc are about half the wall time: planner speed-ups show here, kernel work barely does", setupBatch(batchSmall)},
	{"batch-large", "400k-point skewed job where plan is a constant few percent and map/shuffle/detect kernels do the work; a planner speed-up must not move it", setupBatch(batchLarge)},
	{"batch-highdim", "32-d job that is one proximity-graph kernel call allocating per node; 2-D-only kernel tricks show nothing here", setupBatch(batchHighDim)},
	{"cluster-loopback", "batch-large's input on the cluster engine over loopback HTTP: same math, the difference is dist wire and dispatch", setupBatch(clusterLoopback)},
	{"serve-single", "one window at capacity so every ingest evicts, writes beside lock-free reads: wirejson, stream.Window and index dominate, no router", setupServe(serveSingle)},
	{"serve-sharded", "router plus 3 shards at capacity: fan-out, shard-to-shard support and one shard call per eviction dominate; stream/index are a minority", setupServe(serveSharded)},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Set-up is repeated so setup_s is a median: the benchmark contract asks for
// that ("set up several times in a run and report the median"), because the
// driver gates setup_s between single runs. It is never repeated for long:
// once the repetitions so far have used setupBudget no further one is made.
// (Only batch-highdim, whose 16k x 32-d brute-force oracle takes seconds,
// sets up once.)
const (
	setupReps   = 3
	setupBudget = 4 * time.Second
)

// runWorkload sets the workload up (repeatedly, for a steady setup_s),
// runs the end-to-end or the traced section on the last instance, and
// tears everything down.
func runWorkload(w *workload, cfg runConfig, traced bool) *result {
	began := time.Now()
	res := newResult(w.name, traced)
	var (
		setups []float64
		spent  time.Duration
		run    runner
	)
	reps := setupReps
	if cfg.quick || traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if run != nil {
			run.close()
			run = nil
		}
		start := time.Now()
		r, err := w.setup(cfg, traced)
		took := time.Since(start)
		if err != nil {
			res.Attempted++
			res.fail(1, "set-up: %v", err)
			res.ElapsedS = time.Since(began).Seconds()
			return res
		}
		run = r
		setups = append(setups, took.Seconds())
		if spent += took; spent >= setupBudget {
			break
		}
	}
	defer run.close()
	res.putMedian("setup_s", setups, 1)

	runtime.GC()
	if traced {
		rec := newSpanRecorder()
		run.trace(cfg, res, rec)
		spans := rec.snapshot()
		linkParents(spans)
		res.Spans = make(map[string]spanSummary)
		for name, t := range rollUp(spans) {
			res.Spans[name] = spanSummary{t.Count, t.Total.Seconds(), t.Self.Seconds()}
		}
		if err := writeTrace(cfg.outDir, w.name, spans, rec.dropped); err != nil {
			res.note("writing trace: %v", err)
		}
	} else {
		run.measure(cfg, res)
	}
	if res.Attempted > 0 {
		res.put("failed_frac", float64(res.Failed)/float64(res.Attempted))
	}
	res.ElapsedS = time.Since(began).Seconds()
	return res
}

// driverLine is the contract's last line of standard output.
func driverLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := gatedNames()
	if res.Traced {
		names = driverLayerNames()
	}
	metrics := make(map[string]mv, len(names))
	for _, n := range names {
		// A layer a workload does not have reads 0: the contract wants
		// every per_layer name on every workload. Gated metrics always exist.
		metrics[n] = mv{Value: driverValue(res, n), Unit: defByName[n].Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// driverValue is the run's value for a name of BENCHMARK.json. op_p50_ms is
// the one alias: the latency of whichever operation the workload has.
func driverValue(res *result, name string) float64 {
	if name == "op_p50_ms" {
		if job, ok := res.Metrics["job_p50_s"]; ok {
			return job.Value * 1e3
		}
		name = "ingest_p50_ms"
	}
	return res.Metrics[name].Value
}

// printResult prints every metric of a run by name, with unit and count.
func printResult(res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (%s)  elapsed %.1fs  attempted %d  failed %d\n", res.Workload, kind, res.ElapsedS, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	order := make(map[string]int, len(metricDefs))
	for i, d := range metricDefs {
		order[d.Name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		m := res.Metrics[n]
		extra := ""
		if m.MAD > 0 {
			extra = fmt.Sprintf("  mad %.4g", m.MAD)
		}
		if m.Source != "" {
			extra += "  source:" + m.Source
		}
		fmt.Printf("  %-28s %14.6g %-6s n=%d%s\n", n, m.Value, m.Unit, m.N, extra)
	}
	for _, note := range res.Notes {
		fmt.Printf("  note: %s\n", note)
	}
}

// Time budget of the contract: 4 + 22 runs per workload, every run with
// its set-up, plus two builds, inside budgetCap seconds.
const (
	budgetCap     = 3420.0
	budgetBuilds  = 2 * 90.0
	budgetPerRun  = 1.5 // process start + up-to-date build check
	runsPerLoad   = 22
	extraRuns     = 4
	singleRunCapS = 180.0
)

// projectBudget estimates the driver's total from one full set: each of a
// workload's 22 runs priced at the slower of its two kinds.
func projectBudget(rec *record) (total float64, worst float64) {
	for _, w := range workloads {
		var slow float64
		for _, traced := range []bool{false, true} {
			if r := rec.find(w.name, traced); r != nil && r.ElapsedS > slow {
				slow = r.ElapsedS
			}
		}
		slow += budgetPerRun
		total += runsPerLoad * slow
		if slow > worst {
			worst = slow
		}
	}
	return total + extraRuns*worst + budgetBuilds, worst
}

// runSet runs the given workloads end to end and traced, in order.
func runSet(names []string, cfg runConfig, reverse bool) *record {
	rec := newRecord(cfg)
	if rec.LoadWarn {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load %.2f exceeds 0.5 x nproc (%d); timings will be noisy\n", rec.Load1, rec.NProc)
	}
	began := time.Now()
	order := append([]string(nil), names...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, name := range order {
		w := findWorkload(name)
		for _, traced := range []bool{false, true} {
			res := runWorkload(w, cfg, traced)
			printResult(res)
			rec.Runs = append(rec.Runs, res)
		}
	}
	rec.ElapsedS = time.Since(began).Seconds()
	return rec
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `usage: bench -workload <name|all> [-seed n] [-seconds s] [-trace 0|1] [-quick] [-out file] [-check]
       bench -aa [-workload ...] [-out file]
       bench -compare a.json b.json
       bench -emit-benchmark-json

workloads: %s
`, strings.Join(workloadNames(), ", "))
	flag.PrintDefaults()
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "", "workload name, or all")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed section of one run")
		trace        = flag.Int("trace", 0, "1: traced run (fixed operation count, per-layer metrics); 0: end-to-end run")
		quick        = flag.Bool("quick", false, "2 s sections and one set-up: a smoke run, not for records")
		out          = flag.String("out", "", "write the dodbench/v2 record here")
		check        = flag.Bool("check", false, "exit non-zero if any operation failed or an oracle disagreed")
		aa           = flag.Bool("aa", false, "run the set twice, alternating order, and compare the two")
		compare      = flag.Bool("compare", false, "compare two records: bench -compare a.json b.json")
		emit         = flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json as the dictionary defines it")
	)
	flag.Usage = usage
	flag.Parse()

	switch {
	case *emit:
		_, err := os.Stdout.Write(benchmarkJSON())
		return err
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two record files")
		}
		a, err := readRecord(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readRecord(flag.Arg(1))
		if err != nil {
			return err
		}
		rows := compareRecords(a, b)
		printComparison(os.Stdout, rows)
		if countVerdict(rows, verdictWorse) > 0 {
			return errors.New("at least one row is worse than its bound allows")
		}
		return nil
	}

	// Traces go to bench/out/, from the repo root (the driver) and from
	// bench/ itself (go run .) alike.
	outDir := "out"
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		outDir = filepath.Join("bench", "out")
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), quick: *quick, outDir: outDir}
	if *quick {
		cfg.seconds = 2 * time.Second
	}
	if cfg.seconds < time.Second {
		return errors.New("-seconds must be at least 1")
	}
	names := workloadNames()
	switch {
	case *workloadFlag == "":
		if !*aa {
			flag.Usage()
			return errors.New("no -workload given")
		}
	case *workloadFlag != "all":
		if findWorkload(*workloadFlag) == nil {
			return fmt.Errorf("unknown workload %q", *workloadFlag)
		}
		names = []string{*workloadFlag}
	}

	if *aa {
		first := runSet(names, cfg, false)
		second := runSet(names, cfg, true)
		first.AA, second.AA = true, true
		// Fold first: nothing changed between the two sets, so a row they
		// disagree on beyond its bound is not worse, it is one this machine
		// cannot resolve at that bound right now, and compares as such.
		foldAA(first, second)
		rows := compareRecords(first, second)
		printComparison(os.Stdout, rows)
		if *out != "" {
			if err := first.write(*out); err != nil {
				return err
			}
		}
		if countVerdict(rows, verdictWorse)+countVerdict(rows, verdictDiffers) > 0 {
			return errors.New("-aa: two runs of one commit disagree: a count differs or an operation failed")
		}
		return failedOps(first, second)
	}

	if *workloadFlag != "all" {
		// The driver's form: one workload, one kind of run, the contract's
		// JSON object as the last line.
		res := runWorkload(findWorkload(*workloadFlag), cfg, *trace == 1)
		printResult(res)
		if *out != "" {
			rec := newRecord(cfg)
			rec.Runs = []*result{res}
			rec.ElapsedS = res.ElapsedS
			if err := rec.write(*out); err != nil {
				return err
			}
		}
		fmt.Println(driverLine(res))
		if *check && res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
		return nil
	}

	rec := runSet(names, cfg, false)
	for _, r := range rec.Runs {
		kind := "e2e"
		if r.Traced {
			kind = "traced"
		}
		fmt.Printf("elapsed %-18s %-7s %6.1fs\n", r.Workload, kind, r.ElapsedS)
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			return err
		}
	}
	if !cfg.quick {
		total, worst := projectBudget(rec)
		fmt.Printf("projected driver total %.0fs of %.0fs (slowest run %.1fs of %.0fs)\n", total, budgetCap, worst, singleRunCapS)
		if total > budgetCap || worst > singleRunCapS {
			return fmt.Errorf("time budget exceeded: projected %.0fs > %.0fs", total, budgetCap)
		}
	}
	if *check {
		return failedOps(rec)
	}
	return nil
}

// failedOps is -check's verdict over whole records.
func failedOps(recs ...*record) error {
	for _, rec := range recs {
		for _, r := range rec.Runs {
			if r.Failed > 0 || r.Attempted == 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, strings.Join(r.Notes, "; "))
			}
		}
	}
	return nil
}
