package detect

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dod/internal/geom"
)

// sceneBytes hands out the fuzz input, then — so short inputs still make
// instances large enough to split into tiles — bytes from a PRNG seeded by
// the input.
type sceneBytes struct {
	data []byte
	rng  *rand.Rand
}

func (b *sceneBytes) next() byte {
	if len(b.data) == 0 {
		return byte(b.rng.Intn(256))
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v
}

// float reads 8 bytes as a float64, NaN and ±Inf as 0, clamped to ±128 so a
// d ≤ 5 cell grid's ordinals cannot overflow.
func (b *sceneBytes) float() float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(b.next())
	}
	v := math.Float64frombits(bits)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Max(-128, math.Min(128, v))
}

// adversarialScene decodes fuzz bytes into a detection instance aimed at
// the exact tactics' boundaries: d from 1 to 33; R a multiple of 5/8 (so
// 3-4-5 offsets land exactly on it) and grid coordinates in eighths, whose
// extents are almost never a multiple of CellSide; pairs at exactly R and
// at R ± 1 ulp; coincident and one-ulp-apart points; an optional
// zero-extent dimension; K = 1, K ≥ n, or small; and a support suffix.
//
// Layout: d, R, n, nCore, K, flat, then per point a mode byte and its
// operands.
func adversarialScene(data []byte) (all *geom.PointSet, nCore int, params Params) {
	h := fnv.New64a()
	h.Write(data)
	b := &sceneBytes{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}

	d := 1 + int(b.next())%33
	params.R = 5 * float64(1+b.next()%8) / 8
	n := 1 + int(b.next())
	nCore = 1 + int(b.next())%n
	switch k := b.next(); k % 3 {
	case 0:
		params.K = 1
	case 1:
		params.K = n + int(k/3)%3 // every core point is an outlier
	default:
		params.K = 1 + int(k/3)%8
	}
	flat := b.next()%2 == 1

	all = geom.NewPointSet(d, n)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		mode := b.next()
		earlier := func() []float64 { return all.CoordsAt(int(b.next()) % i) }
		switch m := mode % 5; {
		case i == 0 || m == 2: // grid point, eighths in [-16, 16)
			for a := range p {
				p[a] = float64(int8(b.next())) / 8
			}
		case m == 0: // coincident with an earlier point
			copy(p, earlier())
		case m == 1: // R from an earlier point, then maybe ±1 ulp
			copy(p, earlier())
			a := int(b.next()) % d
			if d == 1 {
				p[a] += params.R
			} else {
				p[a] += 3 * params.R / 5
				p[(a+1)%d] += 4 * params.R / 5
			}
			switch mode / 5 % 3 {
			case 1:
				p[a] = math.Nextafter(p[a], math.Inf(1))
			case 2:
				p[a] = math.Nextafter(p[a], math.Inf(-1))
			}
		case m == 3: // raw coordinates
			for a := range p {
				p[a] = b.float()
			}
		default: // an earlier point one ulp away on one axis
			copy(p, earlier())
			a := int(b.next()) % d
			p[a] = math.Nextafter(p[a], math.Inf(int(b.next()%2)*2-1))
		}
		if flat {
			p[0] = 0
		}
		all.AppendRaw(uint64(i), p)
	}
	return all, nCore, params
}

// shrunkRingSeed encodes TestNeighborBeyondShrunkRing's instance: d = 2,
// R = 5, K = 1, four core points as raw coordinates.
func shrunkRingSeed() []byte {
	side := CellSide(2, 5)
	data := []byte{1, 7, 3, 3, 0, 0}
	for _, pt := range [][2]float64{{0.83 * side, 0}, {0.83*side + 4.9, 0}, {0, 100}, {4.2 * side, -100}} {
		data = append(data, 3)
		for _, c := range pt {
			data = binary.BigEndian.AppendUint64(data, math.Float64bits(c))
		}
	}
	return data
}

// FuzzExactTacticsAgree holds every exact tactic, at one tile and at three
// workers, to BruteForce's outlier set on adversarial instances, and the
// two worker counts to each other bit for bit.
func FuzzExactTacticsAgree(f *testing.F) {
	f.Add(shrunkRingSeed())
	f.Add([]byte{0, 0, 0, 0, 1, 1})
	f.Add([]byte{2, 3, 250, 200, 5, 0})
	f.Add([]byte{4, 7, 255, 127, 2, 1})
	f.Add([]byte{32, 1, 200, 199, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		all, nCore, params := adversarialScene(data)
		want := sortedIDs(DetectSet(New(BruteForce, 0), all, nCore, params).OutlierIDs)
		for _, kind := range []Kind{NestedLoop, CellBased, CellBasedL2, KDTree, Pivot, PGraph} {
			// An L2 block walk is 11^5 cells at d = 5 and 25^33 at d = 33.
			if (kind == CellBased || kind == CellBasedL2) && (all.Dim > 5 || all.Dim == 5 && all.Len() > 32) {
				continue
			}
			d := New(kind, 7)
			one := DetectSetParallel(d, all, nCore, params, 1)
			if got := sortedIDs(one.OutlierIDs); !equalIDs(got, want) {
				t.Fatalf("%v (d=%d n=%d nCore=%d R=%g K=%d): outliers %v, BruteForce %v",
					kind, all.Dim, all.Len(), nCore, params.R, params.K, got, want)
			}
			if three := DetectSetParallel(d, all, nCore, params, 3); !reflect.DeepEqual(three, one) {
				t.Fatalf("%v: three workers %+v, one tile %+v", kind, three.Stats, one.Stats)
			}
		}
	})
}
