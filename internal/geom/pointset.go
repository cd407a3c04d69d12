package geom

import "fmt"

// PointSet is a columnar (struct-of-arrays) point collection: one flat
// coordinate block plus a parallel ID column. It is the allocation-free
// counterpart of []Point for the detection hot paths — iterating a PointSet
// touches two contiguous arrays instead of chasing one heap-allocated
// Coords slice per point, so the "linear scanning and indexing" terms of
// the cost lemmas stop being cache-miss-and-GC terms.
//
// Point i occupies Coords[i*Dim : (i+1)*Dim] and IDs[i]. The zero value is
// an empty set of unspecified dimensionality; Reset both truncates and
// (re)fixes Dim, so sets can be pooled across uses.
type PointSet struct {
	Dim    int       // dimensionality of every point; fixed per use
	IDs    []uint64  // IDs[i] identifies point i
	Coords []float64 // len = Dim*len(IDs), row-major
}

// NewPointSet returns an empty set of the given dimensionality with
// capacity for n points.
func NewPointSet(dim, n int) *PointSet {
	if dim < 1 {
		panic("geom: NewPointSet requires dim >= 1")
	}
	return &PointSet{Dim: dim, IDs: make([]uint64, 0, n), Coords: make([]float64, 0, n*dim)}
}

// PointSetOf concatenates row-oriented point slices into a fresh columnar
// set. It panics when they hold no point (dimensionality would be unknown)
// and on mixed dimensionalities, mirroring Dist's contract.
func PointSetOf(parts ...[]Point) *PointSet {
	n := 0
	for _, pts := range parts {
		n += len(pts)
	}
	var s *PointSet
	for _, pts := range parts {
		for _, p := range pts {
			if s == nil {
				s = NewPointSet(p.Dim(), n)
			}
			s.Append(p)
		}
	}
	if s == nil {
		panic("geom: PointSetOf of no points")
	}
	return s
}

// Len returns the number of points in the set.
func (s *PointSet) Len() int { return len(s.IDs) }

// Clear truncates the set and unfixes its dimensionality, keeping capacity.
// A cleared set adopts the dimensionality of the first point decoded or
// appended into it (see codec.DecodePointInto), which is what the pooled
// reduce scratch needs: partition dimensionality is only known once the
// first record arrives.
func (s *PointSet) Clear() {
	s.Dim = 0
	s.IDs = s.IDs[:0]
	s.Coords = s.Coords[:0]
}

// Reset truncates the set to empty and fixes its dimensionality, keeping
// the underlying capacity so pooled sets do not reallocate.
func (s *PointSet) Reset(dim int) {
	if dim < 1 {
		panic("geom: PointSet.Reset requires dim >= 1")
	}
	s.Dim = dim
	s.IDs = s.IDs[:0]
	s.Coords = s.Coords[:0]
}

// Append adds p to the set. It panics if p's dimensionality does not match.
func (s *PointSet) Append(p Point) {
	if len(p.Coords) != s.Dim {
		panic(fmt.Sprintf("geom: PointSet dimension mismatch %d vs %d", len(p.Coords), s.Dim))
	}
	s.IDs = append(s.IDs, p.ID)
	s.Coords = append(s.Coords, p.Coords...)
}

// AppendRaw adds a point given as an ID and a coordinate slice, which is
// copied. It panics on a dimension mismatch.
func (s *PointSet) AppendRaw(id uint64, coords []float64) {
	if len(coords) != s.Dim {
		panic(fmt.Sprintf("geom: PointSet dimension mismatch %d vs %d", len(coords), s.Dim))
	}
	s.IDs = append(s.IDs, id)
	s.Coords = append(s.Coords, coords...)
}

// AppendSet bulk-appends every point of o. It panics on a dimension
// mismatch (unless o is empty).
func (s *PointSet) AppendSet(o *PointSet) {
	if o.Len() == 0 {
		return
	}
	if o.Dim != s.Dim {
		panic(fmt.Sprintf("geom: PointSet dimension mismatch %d vs %d", o.Dim, s.Dim))
	}
	s.IDs = append(s.IDs, o.IDs...)
	s.Coords = append(s.Coords, o.Coords...)
}

// CoordsAt returns the coordinate row of point i, aliased into the set's
// storage (callers must not hold it across an Append, which may reallocate).
func (s *PointSet) CoordsAt(i int) []float64 {
	return s.Coords[i*s.Dim : (i+1)*s.Dim : (i+1)*s.Dim]
}

// At materializes point i as a row Point whose Coords alias the set.
func (s *PointSet) At(i int) Point {
	return Point{ID: s.IDs[i], Coords: s.CoordsAt(i)}
}

// Points materializes the whole set as a deep-copied []Point — the
// conversion layer back to the public row-oriented API.
func (s *PointSet) Points() []Point {
	out := make([]Point, s.Len())
	coords := make([]float64, len(s.Coords)) // one block for all rows
	copy(coords, s.Coords)
	for i := range out {
		out[i] = Point{ID: s.IDs[i], Coords: coords[i*s.Dim : (i+1)*s.Dim : (i+1)*s.Dim]}
	}
	return out
}

// Dist2Coords returns the squared distance between point i and the bare
// coordinate row q, every term summed in dimension order, so the bits match
// Dist2 on the equivalent row points (a difference's sign does not change
// its square). Between two points of the set it is
// Dist2Coords(i, s.CoordsAt(j)).
func (s *PointSet) Dist2Coords(i int, q []float64) float64 {
	row := s.CoordsAt(i)[:len(q)]
	var d2 float64
	for j, v := range q {
		d := row[j] - v
		d2 += d * d
	}
	return d2
}

// Within2 reports whether dist(i, j) <= r where r2 = r*r, without a sqrt.
// Beyond the unrolled 2D/3D cases it early-exits as soon as the partial sum
// exceeds r2: squared terms are non-negative, so a partial sum already over
// the threshold can never come back under it — the verdict matches the full
// Dist2Coords comparison bit for bit.
func (s *PointSet) Within2(i, j int, r2 float64) bool {
	a := i * s.Dim
	b := j * s.Dim
	switch s.Dim {
	case 2:
		d0 := s.Coords[a] - s.Coords[b]
		sum := d0 * d0
		d1 := s.Coords[a+1] - s.Coords[b+1]
		return sum+d1*d1 <= r2
	case 3:
		d0 := s.Coords[a] - s.Coords[b]
		sum := d0 * d0
		d1 := s.Coords[a+1] - s.Coords[b+1]
		sum += d1 * d1
		d2 := s.Coords[a+2] - s.Coords[b+2]
		return sum+d2*d2 <= r2
	}
	var sum float64
	for k := 0; k < s.Dim; k++ {
		d := s.Coords[a+k] - s.Coords[b+k]
		sum += d * d
		if sum > r2 {
			return false
		}
	}
	return sum <= r2
}

// Within2Coords reports whether point i lies within r (r2 = r*r) of the
// bare coordinate row q — the cross-set counterpart of Within2 for probing
// a set with an external query point. Verdicts match WithinDist on the
// equivalent row points bit for bit (the sign of each difference is
// irrelevant to its square, and the early exit preserves the monotone
// partial-sum argument of Within2).
func (s *PointSet) Within2Coords(i int, q []float64, r2 float64) bool {
	if len(q) != s.Dim {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", s.Dim, len(q)))
	}
	a := i * s.Dim
	switch s.Dim {
	case 2:
		d0 := s.Coords[a] - q[0]
		sum := d0 * d0
		d1 := s.Coords[a+1] - q[1]
		return sum+d1*d1 <= r2
	case 3:
		d0 := s.Coords[a] - q[0]
		sum := d0 * d0
		d1 := s.Coords[a+1] - q[1]
		sum += d1 * d1
		d2 := s.Coords[a+2] - q[2]
		return sum+d2*d2 <= r2
	}
	var sum float64
	for k := 0; k < s.Dim; k++ {
		d := s.Coords[a+k] - q[k]
		sum += d * d
		if sum > r2 {
			return false
		}
	}
	return sum <= r2
}

// countChunk is how many rows the 2-D and 3-D counting loops take at a
// time.
const countChunk = 64

// CountWithin2Coords counts the points of rows [lo, hi) lying within r
// (r2 = r*r) of the bare coordinate row q, in row order, skipping rows
// whose ID equals skipID and stopping at the row that brings the count to
// limit. It returns the neighbor count and the number of rows that
// received a distance evaluation — the caller's DistComps delta. Both are
// exactly what a scan of the rows one at a time with Within2Coords
// returns: the same terms summed in the same order, and the same stopping
// row. A limit of hi-lo or more counts every row.
//
// At d = 2 and d = 3 the rows are counted a chunk of countChunk at a time,
// a full chunk four rows per iteration: each distance test adds its truth
// value to the count without a branch, and the skip test is one OR over
// the four rows' IDs, which holds only where the skip ID lies. The loop
// stops before the four rows in which the count would reach limit, and
// only those are replayed one at a time, so the scan stops where the
// scalar scan stops. Other dimensionalities go one row at a time.
func (s *PointSet) CountWithin2Coords(q []float64, skipID uint64, lo, hi int, r2 float64, limit int) (neighbors, compared int) {
	if len(q) != s.Dim {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", s.Dim, len(q)))
	}
	if s.Dim != 2 && s.Dim != 3 {
		return s.countRows(q, skipID, lo, hi, r2, limit)
	}
	for lo < hi && neighbors < limit {
		end := min(lo+countChunk, hi)
		var n, skipped, stop int
		if s.Dim == 2 {
			n, skipped, stop = count2(s.Coords[2*lo:2*end], s.IDs[lo:end], q[0], q[1], r2, skipID, limit-neighbors)
		} else {
			n, skipped, stop = count3(s.Coords[3*lo:3*end], s.IDs[lo:end], q[0], q[1], q[2], r2, skipID, limit-neighbors)
		}
		neighbors += n
		compared += stop - skipped
		if lo+stop < end {
			n, c := s.countRows(q, skipID, lo+stop, end, r2, limit-neighbors)
			return neighbors + n, compared + c
		}
		lo = end
	}
	return neighbors, compared
}

// countRows is CountWithin2Coords one row at a time. At d = 2 and d = 3
// it tests rows with Within2Coords, whose expressions are the wide loops';
// at other d it sums every term, as Dist2Coords does. The verdict is
// Within2Coords' either way (squared terms are non-negative, so a partial
// sum over r2 stays over it), but on 32-d points near the threshold the
// per-dimension exit measured slower: its branch mispredicts once a row.
func (s *PointSet) countRows(q []float64, skipID uint64, lo, hi int, r2 float64, limit int) (neighbors, compared int) {
	d := s.Dim
	for j := lo; j < hi && neighbors < limit; j++ {
		if s.IDs[j] == skipID {
			continue
		}
		compared++
		if d == 2 || d == 3 {
			neighbors += b2i(s.Within2Coords(j, q, r2))
			continue
		}
		row := s.Coords[j*d : j*d+d]
		q := q[:len(row)]
		sum := 0.0
		for k, v := range row {
			diff := v - q[k]
			sum += diff * diff
		}
		neighbors += b2i(sum <= r2)
	}
	return neighbors, compared
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// move, so counting with it takes no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// count2 counts the 2-D rows of coords (one per entry of ids, at most
// countChunk) within r of (qx, qy), leaving out rows whose ID is skipID,
// and stops before the group of four rows (or, past the last full group,
// the row) in which the count would reach need. It returns the count and
// the number of rows left out before the stop, and the stop's first row
// (len(ids) if the count stays below need). A full chunk is viewed as
// fixed-size arrays once, so its loop carries no bounds checks.
func count2(coords []float64, ids []uint64, qx, qy, r2 float64, skipID uint64, need int) (n, skipped, stop int) {
	if len(ids) == countChunk {
		c := (*[2 * countChunk]float64)(coords)
		id := (*[countChunk]uint64)(ids)
		for g := 0; g < countChunk/4; g++ {
			j, k := 4*g, 8*g
			x0, y0 := c[k]-qx, c[k+1]-qy
			x1, y1 := c[k+2]-qx, c[k+3]-qy
			x2, y2 := c[k+4]-qx, c[k+5]-qy
			x3, y3 := c[k+6]-qx, c[k+7]-qy
			m := b2i(x0*x0+y0*y0 <= r2) + b2i(x1*x1+y1*y1 <= r2) + b2i(x2*x2+y2*y2 <= r2) + b2i(x3*x3+y3*y3 <= r2)
			left := 0
			if id[j] == skipID || id[j+1] == skipID || id[j+2] == skipID || id[j+3] == skipID {
				for t := j; t < j+4; t++ {
					if ids[t] == skipID {
						x, y := c[2*t]-qx, c[2*t+1]-qy
						m -= b2i(x*x+y*y <= r2)
						left++
					}
				}
			}
			if n+m >= need {
				return n, skipped, j
			}
			n += m
			skipped += left
		}
		return n, skipped, countChunk
	}
	for j, v := range ids {
		if v == skipID {
			skipped++
			continue
		}
		x, y := coords[2*j]-qx, coords[2*j+1]-qy
		m := b2i(x*x+y*y <= r2)
		if n+m >= need {
			return n, skipped, j
		}
		n += m
	}
	return n, skipped, len(ids)
}

// count3 is count2 in three dimensions.
func count3(coords []float64, ids []uint64, qx, qy, qz, r2 float64, skipID uint64, need int) (n, skipped, stop int) {
	if len(ids) == countChunk {
		c := (*[3 * countChunk]float64)(coords)
		id := (*[countChunk]uint64)(ids)
		for g := 0; g < countChunk/4; g++ {
			j, k := 4*g, 12*g
			x0, y0, z0 := c[k]-qx, c[k+1]-qy, c[k+2]-qz
			x1, y1, z1 := c[k+3]-qx, c[k+4]-qy, c[k+5]-qz
			x2, y2, z2 := c[k+6]-qx, c[k+7]-qy, c[k+8]-qz
			x3, y3, z3 := c[k+9]-qx, c[k+10]-qy, c[k+11]-qz
			m := b2i(x0*x0+y0*y0+z0*z0 <= r2) + b2i(x1*x1+y1*y1+z1*z1 <= r2) +
				b2i(x2*x2+y2*y2+z2*z2 <= r2) + b2i(x3*x3+y3*y3+z3*z3 <= r2)
			left := 0
			if id[j] == skipID || id[j+1] == skipID || id[j+2] == skipID || id[j+3] == skipID {
				for t := j; t < j+4; t++ {
					if ids[t] == skipID {
						x, y, z := c[3*t]-qx, c[3*t+1]-qy, c[3*t+2]-qz
						m -= b2i(x*x+y*y+z*z <= r2)
						left++
					}
				}
			}
			if n+m >= need {
				return n, skipped, j
			}
			n += m
			skipped += left
		}
		return n, skipped, countChunk
	}
	for j, v := range ids {
		if v == skipID {
			skipped++
			continue
		}
		x, y, z := coords[3*j]-qx, coords[3*j+1]-qy, coords[3*j+2]-qz
		m := b2i(x*x+y*y+z*z <= r2)
		if n+m >= need {
			return n, skipped, j
		}
		n += m
	}
	return n, skipped, len(ids)
}

// Bounds returns the minimal bounding rectangle of the set, with the same
// comparison order as Bounds so the rectangles are bit-identical. It panics
// on an empty set.
func (s *PointSet) Bounds() Rect {
	n := s.Len()
	if n == 0 {
		panic("geom: Bounds of empty point set")
	}
	d := s.Dim
	min := make([]float64, d)
	max := make([]float64, d)
	copy(min, s.Coords[:d])
	copy(max, s.Coords[:d])
	for i := 1; i < n; i++ {
		row := s.Coords[i*d:]
		for k := 0; k < d; k++ {
			if row[k] < min[k] {
				min[k] = row[k]
			}
			if row[k] > max[k] {
				max[k] = row[k]
			}
		}
	}
	return Rect{Min: min, Max: max}
}
