// Command dodfig regenerates the paper's evaluation figures (Sec. VI) on the
// synthetic dataset analogs and prints each as a text table, always at the
// configuration EXPERIMENTS.md quotes. Figs. 4–10 print byte for byte as
// internal/experiments/testdata/figures.golden pins them; the generality
// table ("g") reports wall-clock seconds, so it varies from run to run.
//
// Usage:
//
//	dodfig                  # Figs. 4–10, then the generality table
//	dodfig -fig 9a -fig g   # selected figures, in the order given
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dod/internal/experiments"
)

type figList []string

func (f *figList) String() string     { return strings.Join(*f, ",") }
func (f *figList) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	var figs figList
	flag.Var(&figs, "fig", "figure to print (4, 5, 7a, 7b, 8a, 8b, 9a, 9b, 10a, 10b, g=generality); repeatable; default all")
	flag.Parse()
	if err := run(os.Stdout, figs); err != nil {
		fmt.Fprintln(os.Stderr, "dodfig:", err)
		os.Exit(1)
	}
}

// run prints the named figures in the order given, or every figure when
// names is empty. An unknown name fails before any figure runs.
func run(w io.Writer, names []string) error {
	var valid []string
	for _, r := range experiments.Runners {
		valid = append(valid, r.Name)
	}
	if len(names) == 0 {
		names = valid
	}
	runs := make([]func(experiments.Config) (*experiments.Figure, error), len(names))
	for i, name := range names {
		for _, r := range experiments.Runners {
			if r.Name == name {
				runs[i] = r.Run
			}
		}
		if runs[i] == nil {
			return fmt.Errorf("unknown figure %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}
	for i, runFig := range runs {
		fig, err := runFig(experiments.Config{Seed: 1})
		if err != nil {
			return fmt.Errorf("figure %s: %w", names[i], err)
		}
		fmt.Fprintln(w, fig.String())
	}
	return nil
}
