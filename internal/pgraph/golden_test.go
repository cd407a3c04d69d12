package pgraph

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

var updateGolden = flag.Bool("update", false, "rewrite testdata/build.golden from the current Build")

// buildHash is the sha256 of a built graph: entry, every degree, the flat
// adjacency, then the build's distance computations.
func buildHash(g *Graph, comps int64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.entry))
	put(uint64(len(g.deg)))
	for _, d := range g.deg {
		put(uint64(d))
	}
	for _, v := range g.adj {
		put(uint64(v))
	}
	put(uint64(comps))
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins Build's graph and distance-computation count over
// uniform 2-D, clustered 2-D and 32-d inputs, including the degenerate
// sizes 0, 1 and Degree+1, to hashes recorded once, so a change to the
// construction is held to the graphs it replaced rather than to itself.
// The floats are amd64's; other architectures may fuse multiply-adds.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are amd64 results")
	}
	inputs := []struct {
		name string
		dim  int
		gen  func(n int, seed int64) []geom.Point
	}{
		{"uniform2d", 2, func(n int, seed int64) []geom.Point { return synth.Uniform(n, 100, seed) }},
		{"clustered2d", 2, func(n int, seed int64) []geom.Point { return synth.Segment(synth.Massachusetts, n, seed) }},
		{"uniform32d", 32, func(n int, seed int64) []geom.Point {
			pts, _ := synth.HighDimUniform(n, 32, 4, 0.02, seed)
			return pts
		}},
	}
	var got []string
	for _, in := range inputs {
		for _, n := range []int{0, 1, Degree + 1, 200, 1500} {
			for _, seed := range []int64{1, 7} {
				s := geom.NewPointSet(in.dim, n)
				if n > 0 { // the generators need at least one point
					for _, p := range in.gen(n, seed) {
						s.Append(p)
					}
				}
				g, comps := Build(s, seed)
				got = append(got, fmt.Sprintf("%s n=%d seed=%d comps=%d %s", in.name, n, seed, comps, buildHash(g, comps)))
			}
		}
	}
	path := filepath.Join("testdata", "build.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("%d graphs, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
