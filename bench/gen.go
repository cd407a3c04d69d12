package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"dod/internal/geom"
	"dod/internal/synth"
)

// Parameters every serving workload shares with the issue's table.
const (
	serveR        = 5.0
	serveK        = 4
	serveCapacity = 20000
	jitterSigma   = 0.5
	// ingestIDBase keeps stream IDs clear of the base set's 0..n-1;
	// scoreIDBase keeps query IDs clear of every resident, so a query
	// never excludes a resident as "itself".
	ingestIDBase = uint64(1_000_000)
	scoreIDBase  = uint64(1) << 40
)

// streamGen is the stationary stream: one seeded permutation cycling over
// the base set (the fixed-layout population, see layoutSeed), each visit
// displaced by N(0, sigma) jitter. A window of
// len(base) consecutive items therefore always holds exactly one jittered
// copy of every base point — the window's density is the base set's, for
// as long as the stream runs — while IDs and coordinates never repeat.
// Items are a pure function of (seed, index), so any item can be rebuilt
// from its ID when an oracle needs its coordinates.
type streamGen struct {
	base []geom.Point
	perm []int32
	seed uint64
}

func newStreamGen(seed int64, n int) *streamGen {
	g := &streamGen{
		base: synth.Segment(synth.Massachusetts, n, layoutSeed),
		perm: make([]int32, n),
		seed: uint64(seed),
	}
	for i, p := range rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n) {
		g.perm[i] = int32(p)
	}
	return g
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to (0, 1].
func unit(h uint64) float64 { return (float64(h>>11) + 1) / (1 << 53) }

// coordsAt writes item i's coordinates into dst (len 2). salt separates
// the ingest stream from the query stream over the same base set.
func (g *streamGen) coordsAt(i, salt uint64, dst []float64) {
	b := g.base[g.perm[i%uint64(len(g.perm))]]
	h := splitmix64(g.seed ^ salt ^ (i * 0x9e3779b97f4a7c15))
	u1, u2 := unit(h), unit(splitmix64(h))
	mag := jitterSigma * math.Sqrt(-2*math.Log(u1))
	dst[0] = b.Coords[0] + mag*math.Cos(2*math.Pi*u2)
	dst[1] = b.Coords[1] + mag*math.Sin(2*math.Pi*u2)
}

// ingestPoint is item i of the ingest stream.
func (g *streamGen) ingestPoint(i uint64) geom.Point {
	p := geom.Point{ID: ingestIDBase + i, Coords: make([]float64, 2)}
	g.coordsAt(i, 0, p.Coords)
	return p
}

// scorePoint is item j of the query stream.
func (g *streamGen) scorePoint(j uint64) geom.Point {
	p := geom.Point{ID: scoreIDBase + j, Coords: make([]float64, 2)}
	g.coordsAt(j, 0x5c04e, p.Coords)
	return p
}

// appendLine renders one canonical NDJSON point line — canonical so the
// server's fast parser takes its fast path, as a well-formed client's would.
func appendLine(buf []byte, p geom.Point) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendUint(buf, p.ID, 10)
	buf = append(buf, `,"coords":[`...)
	for d, c := range p.Coords {
		if d > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, c, 'g', -1, 64)
	}
	return append(buf, "]}\n"...)
}

// renderBatches renders count request bodies of lines points each, taking
// consecutive stream items from first on.
func renderBatches(point func(uint64) geom.Point, first uint64, count, lines int) [][]byte {
	out := make([][]byte, count)
	for b := range out {
		var buf []byte
		for l := 0; l < lines; l++ {
			buf = appendLine(buf, point(first+uint64(b*lines+l)))
		}
		out[b] = buf
	}
	return out
}

// idDigest is the FNV-64a digest of an ascending ID list — the form every
// batch oracle compares.
func idDigest(ids []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], id)
		h.Write(b[:]) //nolint:errcheck // hash.Hash never fails
	}
	return h.Sum64()
}

func bytesDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash.Hash never fails
	return h.Sum64()
}
