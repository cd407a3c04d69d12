// Command dodbench regenerates the paper's evaluation figures (Sec. VI) on
// the synthetic dataset analogs and prints each as a text table.
//
// Usage:
//
//	dodbench                       # run every figure at default scale
//	dodbench -fig 9a -fig 10b      # run selected figures
//	dodbench -segment-n 60000 -base-n 8000 -reducers 8 -seed 1
//	dodbench -json BENCH.json      # machine-readable kernel + pipeline benchmarks
//	dodbench -json - -cpuprofile cpu.pprof
//	dodbench -parcheck -parcheck-min 2  # gate: parallel kernel >= 2x sequential
//
// Larger -segment-n / -base-n values reduce the laptop-scale artifacts
// discussed in EXPERIMENTS.md at the price of longer runs.
//
// -json switches from figure tables to the benchmark suite: each detection
// kernel is measured with testing.Benchmark (ns/op, allocs/op, distance
// computations) and one traced end-to-end run contributes per-stage span
// totals; CI uploads the document as an artifact (the committed
// trajectory is bench/records/, written by the bench/ module).
// -cpuprofile and -memprofile write pprof profiles of whichever mode ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dod"
	"dod/internal/detect"
	"dod/internal/experiments"
)

type figList []string

func (f *figList) String() string     { return strings.Join(*f, ",") }
func (f *figList) Set(v string) error { *f = append(*f, v); return nil }

// detectorList collects repeatable -candidate flags, each parsed through
// the public name registry.
type detectorList []detect.Kind

func (d *detectorList) String() string {
	names := make([]string, len(*d))
	for i, k := range *d {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

func (d *detectorList) Set(v string) error {
	k, err := dod.ParseDetector(v)
	if err != nil {
		return err
	}
	*d = append(*d, k)
	return nil
}

func main() {
	var figs figList
	var candidates detectorList
	var (
		segmentN    = flag.Int("segment-n", 20000, "points per dataset segment (Figs. 7, 9a)")
		baseN       = flag.Int("base-n", 4000, "per-segment points of the hierarchical levels (Figs. 8, 9b)")
		sweepN      = flag.Int("sweep-n", 10000, "points of the density-sweep sets (Figs. 4, 5)")
		reducers    = flag.Int("reducers", 8, "reduce tasks")
		partitions  = flag.Int("partitions", 0, "target partitions for grid/bisection planners (default 4x reducers)")
		seed        = flag.Int64("seed", 1, "random seed")
		parallelism = flag.Int("parallelism", 0, "local goroutines (default GOMAXPROCS)")
	)
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV (figure,series,x,y) instead of tables")
	jsonOut := flag.String("json", "", "run the benchmark suite instead of figures and write JSON records to this file (- for stdout)")
	parCheck := flag.Bool("parcheck", false, "benchmark the parallel Cell-Based kernel against the sequential one at GOMAXPROCS workers, verify bit-identity, and exit nonzero if the speedup ratio is below -parcheck-min")
	parCheckMin := flag.Float64("parcheck-min", 0, "minimum parallel/sequential throughput ratio for -parcheck")
	parCheckN := flag.Int("parcheck-n", 8000, "dataset size for -parcheck")
	graphCheck := flag.Bool("graphcheck", false, "verify the Prox-Graph tactic answers byte-identically to BruteForce on fixed seeds (low- and high-dimensional, sequential and tiled) and exit nonzero on the first divergence")
	graphCheckN := flag.Int("graphcheck-n", 2500, "dataset size for -graphcheck")
	approx := flag.Bool("approx", false, "allow approximate detector candidates (e.g. Sens-Sample) in figure runs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Var(&figs, "fig", "figure to run (4, 5, 7a, 7b, 8a, 8b, 9a, 9b, 10a, 10b, g=generality); repeatable; default all")
	flag.Var(&candidates, "candidate", "detector candidate for DMT's per-partition choice (NestedLoop, CellBased, ...); repeatable; default NestedLoop+CellBased")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dodbench:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(err)
			}
		}()
	}

	if *parCheck {
		if err := runParCheck(*parCheckN, *parCheckMin); err != nil {
			fail(err)
		}
		return
	}

	if *graphCheck {
		if err := runGraphCheck(*graphCheckN); err != nil {
			fail(err)
		}
		return
	}

	if *jsonOut != "" {
		if err := runJSONBench(benchRunConfig{
			points:      *segmentN,
			reducers:    *reducers,
			seed:        *seed,
			parallelism: *parallelism,
		}, *jsonOut); err != nil {
			fail(err)
		}
		return
	}

	cfg := experiments.Config{
		SegmentN:    *segmentN,
		BaseN:       *baseN,
		SweepN:      *sweepN,
		Reducers:    *reducers,
		Partitions:  *partitions,
		Seed:        *seed,
		Parallelism: *parallelism,
		Candidates:  candidates,
		AllowApprox: *approx,
	}
	if err := run(cfg, figs, *csvOut); err != nil {
		fail(err)
	}
}

var runners = map[string]func(experiments.Config) (*experiments.Figure, error){
	"4":   experiments.Fig4,
	"5":   experiments.Fig5,
	"7a":  experiments.Fig7a,
	"7b":  experiments.Fig7b,
	"8a":  experiments.Fig8a,
	"8b":  experiments.Fig8b,
	"9a":  experiments.Fig9a,
	"9b":  experiments.Fig9b,
	"10a": experiments.Fig10a,
	"10b": experiments.Fig10b,
	"g":   experiments.Generality,
}

var order = []string{"4", "5", "7a", "7b", "8a", "8b", "9a", "9b", "10a", "10b", "g"}

func run(cfg experiments.Config, figs figList, csvOut bool) error {
	selected := []string(figs)
	if len(selected) == 0 {
		selected = order
	}
	if csvOut {
		fmt.Println("figure,series,x,y")
	}
	for _, id := range selected {
		runner, ok := runners[id]
		if !ok {
			return fmt.Errorf("unknown figure %q (valid: %s)", id, strings.Join(order, ", "))
		}
		fig, err := runner(cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if csvOut {
			writeCSV(fig)
		} else {
			fmt.Println(fig.String())
		}
	}
	return nil
}

// writeCSV emits one row per sample. Series labels and categories never
// contain commas, so no quoting is needed.
func writeCSV(fig *experiments.Figure) {
	for _, s := range fig.Series {
		for _, p := range s.Points {
			fmt.Printf("%s,%s,%s,%g\n", fig.ID, s.Label, p.X, p.Y)
		}
	}
}
