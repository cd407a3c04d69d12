package experiments

import (
	"testing"
)

func TestFig7bShape(t *testing.T) {
	fig, err := Fig7b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range []string{"OH", "MA", "CA", "NY"} {
		if v := fig.MustGet("CDriven", seg); v != 1 {
			t.Errorf("CDriven self-ratio on %s = %g", seg, v)
		}
		// With the mixed-density cost model no baseline should beat CDriven
		// by a large margin anywhere.
		for _, planner := range []string{"Domain", "uniSpace", "DDriven"} {
			if v := fig.MustGet(planner, seg); v < 0.5 {
				t.Errorf("%s on %s = %g; CDriven should not lose 2x", planner, seg, v)
			}
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	for name, run := range map[string]func(Config) (*Figure, error){"8a": Fig8a, "8b": Fig8b} {
		fig, err := run(tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, planner := range []string{"Domain", "uniSpace", "DDriven", "CDriven"} {
			// Time grows monotonically from MA to Planet for every planner.
			prev := 0.0
			for _, level := range []string{"MA", "NE", "US", "Planet"} {
				v := fig.MustGet(planner, level)
				if v <= 0 {
					t.Errorf("%s: %s@%s = %g", name, planner, level, v)
				}
				if v < prev {
					t.Errorf("%s: %s time shrank from %g to %g at %s", name, planner, prev, v, level)
				}
				prev = v
			}
		}
		// At the largest scale the cost-driven planner must beat the naive
		// baselines.
		cd := fig.MustGet("CDriven", "Planet")
		for _, planner := range []string{"Domain", "uniSpace", "DDriven"} {
			if v := fig.MustGet(planner, "Planet"); v < cd {
				t.Errorf("%s: %s (%g) beat CDriven (%g) at Planet", name, planner, v, cd)
			}
		}
	}
}

func TestFig9bShape(t *testing.T) {
	fig, err := Fig9b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// DMT must win at the two largest scales, and its advantage must not
	// shrink from US to Planet.
	for _, level := range []string{"US", "Planet"} {
		dmt := fig.MustGet("DMT", level)
		nl := fig.MustGet("Nested-Loop", level)
		cb := fig.MustGet("Cell-Based", level)
		best := nl
		if cb < best {
			best = cb
		}
		if dmt > best {
			t.Errorf("%s: DMT %g lost to best single tactic %g", level, dmt, best)
		}
	}
}

func TestFig10aShape(t *testing.T) {
	fig, err := Fig10a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Domain and uniSpace pay no preprocessing; DDriven and DMT do.
	for _, label := range []string{"Domain + Cell-Based", "uniSpace + Cell-Based"} {
		if v := fig.MustGet(label, "Preprocess"); v != 0 {
			t.Errorf("%s preprocess = %g, want 0", label, v)
		}
	}
	for _, label := range []string{"DDriven + Cell-Based", "DMT"} {
		if v := fig.MustGet(label, "Preprocess"); v == 0 {
			t.Errorf("%s preprocess missing", label)
		}
	}
	// DMT's reduce stage must beat every single-tactic alternative.
	dmt := fig.MustGet("DMT", "Reduce")
	for _, label := range []string{"Domain + Cell-Based", "uniSpace + Cell-Based", "DDriven + Cell-Based"} {
		if v := fig.MustGet(label, "Reduce"); v < dmt {
			t.Errorf("%s reduce %g beat DMT %g", label, v, dmt)
		}
	}
}

func TestSampleRateBounds(t *testing.T) {
	if got := sampleRate(100); got != 1 {
		t.Errorf("tiny dataset rate = %g, want 1", got)
	}
	if got := sampleRate(10_000_000); got != 0.005 {
		t.Errorf("huge dataset rate = %g, want the paper's 0.005", got)
	}
	if got := sampleRate(50_000); got <= 0.005 || got >= 1 {
		t.Errorf("mid dataset rate = %g, want interior value", got)
	}
}

func TestGeneralityAgreement(t *testing.T) {
	fig, err := Generality(Config{SegmentN: 2500, Reducers: 4, Partitions: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range fig.Notes {
		if len(note) >= 7 && note[:7] == "WARNING" {
			t.Errorf("generality divergence: %s", note)
		}
	}
	for _, label := range []string{"DBSCAN", "LOCI", "kNN top-n"} {
		for _, mode := range []string{"centralized", "distributed"} {
			if _, ok := fig.Get(label, mode); !ok {
				t.Errorf("missing %s/%s", label, mode)
			}
		}
	}
}
