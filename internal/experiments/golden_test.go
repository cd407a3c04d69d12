package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from the figures this tree produces")

// TestFiguresGolden pins the rendered tables of Figs. 4–10 at the default
// configuration, the one EXPERIMENTS.md quotes, to testdata/figures.golden.
// Every cell is a deterministic work counter times a fixed rate, so a change
// that moves one cell of one figure fails here and the diff names it. The
// generality table reports wall-clock seconds and stays out.
func TestFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats are amd64's: other architectures may fuse multiply-adds")
	}
	figs, err := All(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, fig := range figs {
		b.WriteString(fig.String())
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	want := strings.Split(string(data), "\n")
	if len(got) != len(want) {
		t.Errorf("rendered %d lines, golden file has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d differs from golden:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

// All runs every figure reproduction, Figs. 4–10, in paper order.
func All(cfg Config) ([]*Figure, error) {
	var figs []*Figure
	for _, r := range Runners[:len(Runners)-1] {
		f, err := r.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure %s: %w", r.Name, err)
		}
		figs = append(figs, f)
	}
	return figs, nil
}
