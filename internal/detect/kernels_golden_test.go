package detect

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dod/internal/geom"
	"dod/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernels.golden from the current kernels")

// goldenInput is one detection instance of the kernel golden file.
type goldenInput struct {
	name   string
	all    *geom.PointSet
	nCore  int
	params Params
	seed   int64
	kinds  []Kind
}

func goldenInputs() []goldenInput {
	every := []Kind{BruteForce, NestedLoop, CellBased, CellBasedL2, KDTree, Pivot, PGraph, SSample}
	var ins []goldenInput
	for seed := int64(1); seed <= 40; seed++ {
		core, support, params := randomScene(seed)
		all, nCore := buildSet(core, support)
		ins = append(ins, goldenInput{fmt.Sprintf("scene%d", seed), all, nCore, params, seed, every})
	}
	// Large enough to split into real tiles; the last fifth is support.
	for _, n := range []int{1500, 6000} {
		all := geom.PointSetOf(synth.Segment(synth.Massachusetts, n, 3))
		ins = append(ins, goldenInput{fmt.Sprintf("ma%d", n), all, n * 4 / 5, Params{R: 5, K: 4}, 7, every})
	}
	cloud := geom.PointSetOf(synth.GaussianCloud(2000, 3, 17))
	ins = append(ins, goldenInput{"cloud3d", cloud, 1600, Params{R: 5, K: 4}, 7, every})
	// No Cell-Based variant at d=32: its 3^d block walk does not finish.
	hd, _ := synth.HighDimUniform(2000, 32, 4, 0.005, 3)
	ins = append(ins, goldenInput{"sphere32d", geom.PointSetOf(hd), 2000, Params{R: 4, K: 4}, 7,
		[]Kind{BruteForce, NestedLoop, KDTree, Pivot, PGraph, SSample}})
	single := geom.NewPointSet(2, 5)
	single.AppendRaw(1, []float64{1, 1})
	for i, c := range [][]float64{{1.5, 1}, {1, 1.5}, {0.5, 1}, {3, 3}} {
		single.AppendRaw(uint64(10+i), c)
	}
	ins = append(ins, goldenInput{"single", single, 1, Params{R: 1, K: 2}, 7, every})
	ins = append(ins, goldenInput{"empty", single, 0, Params{R: 1, K: 2}, 7, every})
	return ins
}

// resultHash is the sha256 of a Result: the outlier IDs in order, then the
// three Stats fields.
func resultHash(r Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(r.OutlierIDs)))
	for _, id := range r.OutlierIDs {
		put(id)
	}
	put(uint64(r.Stats.DistComps))
	put(uint64(r.Stats.PointsIndexed))
	put(uint64(r.Stats.CellsPruned))
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelsGolden pins every kind's Result — order-sensitive outlier IDs
// and all Stats — on every entry point (DetectSet, and DetectSetParallel at
// 1, 2, 3 and 8 workers) to hashes recorded once, so a kernel rewrite is
// held to the kernels it replaced rather than to itself. The floats are
// amd64's; other architectures may fuse multiply-adds.
func TestKernelsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are amd64 results")
	}
	var got []string
	for _, in := range goldenInputs() {
		for _, kind := range in.kinds {
			d := New(kind, in.seed)
			line := func(entry string, r Result) {
				got = append(got, fmt.Sprintf("%s %s %s %s", in.name, kind, entry, resultHash(r)))
			}
			line("seq", DetectSet(d, in.all, in.nCore, in.params))
			for _, w := range []int{1, 2, 3, 8} {
				line(fmt.Sprintf("par%d", w), DetectSetParallel(d, in.all, in.nCore, in.params, w))
			}
		}
	}
	path := filepath.Join("testdata", "kernels.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d results, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 20 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d results differ from the golden file", bad, len(want))
	}
}

// TestDetectSetAllocs caps DetectSet's allocations per call on a 3 000-point
// segment at the measured counts plus two: neither the kernels' scans nor
// PGraph's build allocate per point, and one-tile dispatch adds at most a
// constant. Under -race the pool drops its scratch at random, so the gate
// does not run there.
func TestDetectSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include dropped sync.Pool entries")
	}
	all := geom.PointSetOf(synth.Segment(synth.Massachusetts, 3000, 3))
	ceiling := map[Kind]float64{
		BruteForce:  9 + 2,
		NestedLoop:  11 + 2,
		CellBased:   25 + 2,
		CellBasedL2: 34 + 2,
		KDTree:      12 + 2,
		Pivot:       13 + 2,
		PGraph:      66 + 2,
		SSample:     36 + 2,
	}
	for kind, max := range ceiling {
		d := New(kind, 7)
		allocs := testing.AllocsPerRun(3, func() { DetectSet(d, all, all.Len(), benchParams) })
		if allocs > max {
			t.Errorf("%v: %v allocs per DetectSet, ceiling %v", kind, allocs, max)
		}
	}
}
