package dod

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generality.golden from the results this tree computes")

// generalityCase is one distributed run of the three Sec. III-B adaptations.
type generalityCase struct {
	name       string
	points     []Point
	r          float64
	partitions int
	seed       int64
}

// generalityCases are the golden's inputs: uniform random points at about
// two points per unit volume (d = 1–4 × 6 seeds × 4 partition counts, r = 1),
// and lattice points with every coordinate a multiple of 0.5, so that many
// pairs sit exactly at the radius and on cell and partition edges
// (d = 1–3 × 8 seeds × 3 partition counts × 3 radii).
func generalityCases() []generalityCase {
	const n = 150
	var cases []generalityCase
	for d := 1; d <= 4; d++ {
		side := math.Pow(n/2, 1/float64(d))
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(d)))
			pts := make([]Point, n)
			for i := range pts {
				c := make([]float64, d)
				for j := range c {
					c[j] = rng.Float64() * side
				}
				pts[i] = Point{ID: uint64(i), Coords: c}
			}
			for _, parts := range []int{1, 4, 16, 25} {
				cases = append(cases, generalityCase{
					name:   fmt.Sprintf("random d=%d seed=%d parts=%d r=1", d, seed, parts),
					points: pts, r: 1, partitions: parts, seed: seed,
				})
			}
		}
	}
	for d := 1; d <= 3; d++ {
		steps := []int{0, 60, 16, 7}[d] // lattice sites per dimension
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(d)))
			pts := make([]Point, n)
			for i := range pts {
				c := make([]float64, d)
				for j := range c {
					c[j] = 0.5 * float64(rng.Intn(steps))
				}
				pts[i] = Point{ID: uint64(i), Coords: c}
			}
			for _, parts := range []int{1, 9, 16} {
				for _, r := range []float64{1, 1.5, 2} {
					cases = append(cases, generalityCase{
						name:   fmt.Sprintf("lattice d=%d seed=%d parts=%d r=%g", d, seed, parts, r),
						points: pts, r: r, partitions: parts, seed: seed,
					})
				}
			}
		}
	}
	return cases
}

// generalityLine hashes one case's DBSCAN labels, LOCI outlier IDs and kNN
// ranking (IDs and distance bits) with the supporting radius both auto-tuned
// and set to r.
func generalityLine(c generalityCase) (string, error) {
	h := func(b []byte) string { s := sha256.Sum256(b); return fmt.Sprintf("%x", s[:8]) }

	db, err := DBSCAN(c.points, DBSCANConfig{Eps: c.r, MinPts: 4, NumPartitions: c.partitions, NumReducers: 3, Seed: c.seed})
	if err != nil {
		return "", fmt.Errorf("dbscan: %w", err)
	}
	ids := make([]uint64, 0, len(db.Labels))
	for id := range db.Labels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendVarint(nil, int64(db.NumClusters))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
		buf = binary.AppendVarint(buf, int64(db.Labels[id]))
	}
	line := "dbscan=" + h(buf)

	lo, err := LOCI(c.points, LOCIConfig{R: c.r, KSigma: 1, NumPartitions: c.partitions, NumReducers: 3, Seed: c.seed})
	if err != nil {
		return "", fmt.Errorf("loci: %w", err)
	}
	buf = binary.AppendUvarint(nil, uint64(len(lo)))
	for _, id := range lo {
		buf = binary.AppendUvarint(buf, id)
	}
	line += fmt.Sprintf(" loci=%s/%d", h(buf), len(lo))

	for _, s := range []float64{0, c.r} {
		kn, err := KNNOutliers(c.points, KNNConfig{K: 3, N: 20, SupportRadius: s, NumPartitions: c.partitions, NumReducers: 3, Seed: c.seed})
		if err != nil {
			return "", fmt.Errorf("knn s=%g: %w", s, err)
		}
		buf = nil
		for _, o := range kn {
			buf = binary.AppendUvarint(buf, o.ID)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Dist))
		}
		line += fmt.Sprintf(" knn(s=%g)=%s", s, h(buf))
	}
	return c.name + ": " + line, nil
}

// TestGeneralityGolden pins every distributed DBSCAN, LOCI and kNN result
// over generalityCases. Regenerate with -update only in a commit that says
// which lines moved and why.
func TestGeneralityGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden pins amd64 float results")
	}
	var got []string
	for _, c := range generalityCases() {
		line, err := generalityLine(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, line)
	}
	path := filepath.Join("testdata", "generality.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d results differ from the golden file", bad, len(want))
	}
}
