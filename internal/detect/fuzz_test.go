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

// scanScene decodes fuzz bytes into one random scan aimed at the counting
// kernel's edges: d from 1 to 6; 0 to 3 chunks of candidates besides the
// query; a rotation anywhere, so the second sweep may carry the stop; the
// limit-th neighbour steered to within three places of a chunk edge of
// either sweep; the query's own row on any lane, and rows that repeat its
// ID; rows exactly on the threshold (copies of the partner that defines
// r2), one ulp inside or outside it on one axis, coincident with the
// query, or far; and r2 itself moved one ulp either way.
//
// It returns the set, the query row, the seed of the scan order and that
// order, the squared threshold and the limit. Layout: d, n (two bytes),
// seed, offset, ID multiple, edge, edge shift, self position, limit mode,
// r2 shift, then the query, the partner offset and one mode byte per row.
func scanScene(data []byte) (all *geom.PointSet, pi int, seed int64, order []int, r2 float64, limit int) {
	h := fnv.New64a()
	h.Write(data)
	b := &sceneBytes{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}

	d := 1 + int(b.next())%6
	n := 1 + (int(b.next())<<8|int(b.next()))%(3*countChunkRows+1)
	seed = int64(b.next())
	order = rand.New(rand.NewSource(seed)).Perm(n)
	offset := int(b.next()) % n
	id := uint64(0) // the residue whose rotation is offset
	for scanOffset(id, n) != offset {
		id++
	}
	id += uint64(n) * uint64(b.next())

	// Chunk edges in scan positions: each sweep starts a chunk.
	edges := []int{0, n - offset}
	for c := countChunkRows; c < n; c += countChunkRows {
		edges = append(edges, c, n-offset+c)
	}
	target := edges[int(b.next())%len(edges)] + int(b.next())%7 - 3
	target = max(0, min(n-1, target))
	self := int(b.next()) % n
	limitMode := b.next() % 4
	r2Shift := b.next() % 3

	q := make([]float64, d)
	partner := make([]float64, d)
	for a := range q {
		q[a] = float64(int8(b.next())) + float64(b.next())/256
		partner[a] = q[a] + (float64(b.next())-127.5)/64
	}
	for a := range q {
		diff := q[a] - partner[a]
		r2 += diff * diff
	}

	// rows[s] is the row the scan reaches at position s.
	rowCoords := make([][]float64, n)
	rowIDs := make([]uint64, n)
	for s := range rowCoords {
		p := append([]float64(nil), partner...)
		rowIDs[s] = 1<<40 + uint64(s)
		mode := b.next()
		if s == target {
			mode = 0 // the steered stop is a neighbour
		}
		switch {
		case s == self:
			copy(p, q)
			rowIDs[s] = id
		case mode%8 < 2: // exactly on the threshold
		case mode%8 == 2: // one ulp toward the query on one axis
			a := int(mode/8) % d
			p[a] = math.Nextafter(p[a], q[a])
		case mode%8 == 3: // one ulp away from it
			a := int(mode/8) % d
			p[a] = math.Nextafter(p[a], 2*p[a]-q[a])
		case mode%8 == 4: // a row repeating the query's ID, within r
			rowIDs[s] = id
		case mode%8 == 5: // coincident with the query
			copy(p, q)
		default: // far
			for a := range p {
				p[a] = q[a] + 4*(partner[a]-q[a]) + 1
			}
		}
		rowCoords[s] = p
	}
	switch r2Shift {
	case 1:
		r2 = math.Nextafter(r2, 0)
	case 2:
		r2 = math.Nextafter(r2, math.Inf(1))
	}

	// Scan position s reads pool row (offset+s) mod n, which is row
	// order[(offset+s) mod n] of the set.
	all = &geom.PointSet{Dim: d, IDs: make([]uint64, n), Coords: make([]float64, n*d)}
	for s := range rowCoords {
		row := order[(offset+s)%n]
		all.IDs[row] = rowIDs[s]
		copy(all.Coords[row*d:(row+1)*d], rowCoords[s])
	}
	pi = order[(offset+self)%n]

	switch limitMode {
	case 0: // small
		limit = 1 + int(b.next())%4
	case 1: // never reached
		limit = n + int(b.next())%3
	default: // reached at the last neighbour up to the steered position
		limit = 0
		for s := 0; s <= target; s++ {
			if row := order[(offset+s)%n]; all.IDs[row] != id && all.Within2(pi, row, r2) {
				limit++
			}
		}
		limit = max(limit, 1)
	}
	return all, pi, seed, order, r2, limit
}

// countChunkRows mirrors the counting kernel's chunk, so scanScene can aim
// at its edges.
const countChunkRows = 64

// FuzzRandomScan holds randomScan over the gathered pool to
// scalarRandomScan over the permutation: the same neighbour count and the
// same DistComps delta.
func FuzzRandomScan(f *testing.F) {
	for i := 0; i < 48; i++ {
		f.Add([]byte{byte(i), byte(i / 8), byte(i * 37), byte(i), byte(i * 53), byte(i), byte(i), byte(i * 5), byte(i * 29), byte(i), byte(i / 3)})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		all, pi, seed, order, r2, limit := scanScene(data)
		var got, want Stats
		gotN := randomScan(all, pi, scanPool(all, seed), r2, limit, &got)
		wantN := scalarRandomScan(all, pi, order, r2, limit, &want)
		if gotN != wantN || got != want {
			t.Fatalf("d=%d n=%d point %d limit %d: randomScan (%d neighbours, %d comps), scalar (%d, %d)",
				all.Dim, all.Len(), pi, limit, gotN, got.DistComps, wantN, want.DistComps)
		}
	})
}
