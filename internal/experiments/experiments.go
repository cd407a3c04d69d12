// Package experiments regenerates every figure of the paper's evaluation
// (Sec. VI) on the synthetic analogs of its datasets. Each FigN function
// runs the corresponding workload sweep and returns a Figure holding the
// same series the paper plots; String renders it as a text table.
//
// Times on the y-axes are simulated-cluster makespans (core.Report's
// Simulated: per-task work counters scheduled by binpack.LPT on the paper's
// 40 × 8 slots), so results are reproducible and machine-independent;
// EXPERIMENTS.md compares their *shape* against the paper's reported
// curves.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X string  // category label (dataset, density, stage, ...)
	Y float64 // value (seconds or ratio)
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is the reproduced counterpart of one paper figure.
type Figure struct {
	ID     string // e.g. "Fig. 7a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Get returns the y value of series label at category x.
func (f *Figure) Get(label, x string) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y, true
			}
		}
	}
	return 0, false
}

// String renders the figure as an aligned text table: one row per series,
// one column per x category.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "  x: %s   y: %s\n", f.XLabel, f.YLabel)

	// Collect the category order from the first series.
	var cats []string
	if len(f.Series) > 0 {
		for _, p := range f.Series[0].Points {
			cats = append(cats, p.X)
		}
	}
	width := 12
	for _, s := range f.Series {
		if len(s.Label) > width {
			width = len(s.Label)
		}
	}
	fmt.Fprintf(&b, "  %-*s", width, "")
	for _, c := range cats {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-*s", width, s.Label)
		for _, c := range cats {
			if v, ok := f.Get(s.Label, c); ok {
				fmt.Fprintf(&b, " %12.4g", v)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiment workloads. The defaults with Seed 1 are the
// configuration testdata/figures.golden pins and EXPERIMENTS.md quotes;
// they run every figure in seconds on a laptop.
type Config struct {
	// SegmentN is the cardinality of one dataset segment (the paper's
	// state extracts are ~30M points; default 20000 preserves the density
	// and skew structure at laptop scale).
	SegmentN int
	// BaseN is the per-segment cardinality of the hierarchical levels
	// (Fig. 8/9b); Planet is 20× this. Default 4000.
	BaseN int
	// SweepN is the cardinality of the density-sweep sets (Figs. 4, 5).
	// Default 10000, the paper's own size for these microbenchmarks.
	SweepN int
	// Reducers is the reduce-task count of the detection jobs. Default 8.
	Reducers int
	// Partitions is the target partition count for grid/bisection
	// planners. Default 4×Reducers.
	Partitions int
	// Seed drives all generators and algorithms.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SegmentN <= 0 {
		c.SegmentN = 20000
	}
	if c.BaseN <= 0 {
		c.BaseN = 4000
	}
	if c.SweepN <= 0 {
		c.SweepN = 10000
	}
	if c.Reducers <= 0 {
		c.Reducers = 8
	}
	if c.Partitions <= 0 {
		c.Partitions = 4 * c.Reducers
	}
	return c
}

// seconds converts a simulated duration to float seconds for plotting.
func seconds(d time.Duration) float64 { return d.Seconds() }

// Runners lists every reproduction in paper order, each under its short
// name ("4", "7a", ...). The last, "g", is the generality table: it reports
// wall-clock seconds, so the figure golden leaves it out.
var Runners = []struct {
	Name string
	Run  func(Config) (*Figure, error)
}{
	{"4", Fig4},
	{"5", Fig5},
	{"7a", Fig7a},
	{"7b", Fig7b},
	{"8a", Fig8a},
	{"8b", Fig8b},
	{"9a", Fig9a},
	{"9b", Fig9b},
	{"10a", Fig10a},
	{"10b", Fig10b},
	{"g", Generality},
}
