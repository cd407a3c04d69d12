package dshc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dod/internal/geom"
)

// Add is Def. 5.4 as a value: the AF of a and b merged, leaving both as
// they are. It runs the build's in-place absorb on a copy of a.
func (a AF) Add(b AF) AF {
	a.Rect = a.Rect.Clone()
	a.absorb(b)
	return a
}

// randomAF generates a bounded, well-formed AF from quick's rand source.
func randomAF(rng *rand.Rand) AF {
	x, y := rng.Float64()*100, rng.Float64()*100
	w, h := 0.1+rng.Float64()*20, 0.1+rng.Float64()*20
	return AF{
		NumPoints: float64(rng.Intn(10000)),
		Rect:      geom.NewRect([]float64{x, y}, []float64{x + w, y + h}),
	}
}

func TestAFAddCountAdditiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAF(rng), randomAF(rng)
		sum := a.Add(b)
		return sum.NumPoints == a.NumPoints+b.NumPoints
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAFAddBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAF(rng), randomAF(rng)
		sum := a.Add(b)
		return sum.Rect.ContainsRect(a.Rect) && sum.Rect.ContainsRect(b.Rect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAFAddCommutativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAF(rng), randomAF(rng)
		ab, ba := a.Add(b), b.Add(a)
		return ab.NumPoints == ba.NumPoints && ab.Rect.Equal(ba.Rect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAFAddAssociativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomAF(rng), randomAF(rng), randomAF(rng)
		left := a.Add(b).Add(c)
		right := a.Add(b.Add(c))
		return math.Abs(left.NumPoints-right.NumPoints) < 1e-9 && left.Rect.Equal(right.Rect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRectangularMergeDensityBetweenQuick(t *testing.T) {
	// When two abutting same-height AFs merge, the merged density lies
	// between the two input densities — the invariant that keeps DSHC's
	// density classes stable under merging.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Float64()*10
		w1, w2 := 0.5+rng.Float64()*10, 0.5+rng.Float64()*10
		a := AF{
			NumPoints: 1 + float64(rng.Intn(5000)),
			Rect:      geom.NewRect([]float64{0, 0}, []float64{w1, h}),
		}
		b := AF{
			NumPoints: 1 + float64(rng.Intn(5000)),
			Rect:      geom.NewRect([]float64{w1, 0}, []float64{w1 + w2, h}),
		}
		if !a.Rect.UnionIsRectangular(b.Rect) {
			return false // construction guarantees abutment
		}
		merged := a.Add(b)
		lo, hi := a.Density(), b.Density()
		if lo > hi {
			lo, hi = hi, lo
		}
		d := merged.Density()
		return d >= lo-1e-9 && d <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDensityClassSimilarityIsEquivalenceQuick(t *testing.T) {
	// With a DensityClass, densitySimilar must be reflexive, symmetric and
	// transitive (it is class equality).
	class := func(d float64) int {
		switch {
		case d == 0:
			return 0
		case d < 1:
			return 1
		default:
			return 2
		}
	}
	p := Params{DensityClass: class}
	f := func(d1, d2, d3 float64) bool {
		d1, d2, d3 = math.Abs(d1), math.Abs(d2), math.Abs(d3)
		if !p.densitySimilar(d1, d1) {
			return false // reflexive
		}
		if p.densitySimilar(d1, d2) != p.densitySimilar(d2, d1) {
			return false // symmetric
		}
		if p.densitySimilar(d1, d2) && p.densitySimilar(d2, d3) && !p.densitySimilar(d1, d3) {
			return false // transitive
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
