package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// groupBySortRef is the definition groupByKey must equal: sort a copy of
// the pairs stably by key, then cut the sorted list into runs of equal key.
func groupBySortRef(pairs []Pair) []Group {
	sorted := append([]Pair(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var gs []Group
	for _, p := range sorted {
		if n := len(gs); n == 0 || gs[n-1].Key != p.Key {
			gs = append(gs, Group{Key: p.Key})
		}
		g := &gs[len(gs)-1]
		g.Values = append(g.Values, p.Value)
	}
	return gs
}

// randomPairs draws n pairs over at most keys distinct keys, the sample
// job's reserved ^uint64(0) key among them; every value is unique, so a
// value out of arrival order cannot pass for another.
func randomPairs(rng *rand.Rand, n, keys int) []Pair {
	keySet := make([]uint64, keys)
	for i := range keySet {
		keySet[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	keySet[rng.Intn(keys)] = ^uint64(0)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: keySet[rng.Intn(keys)], Value: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}
	}
	return pairs
}

func checkGroups(t *testing.T, name string, got, want []Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("%s: group %d is key %d with %d values, want key %d with %d",
				name, i, got[i].Key, len(got[i].Values), want[i].Key, len(want[i].Values))
		}
		for j := range want[i].Values {
			if !bytes.Equal(got[i].Values[j], want[i].Values[j]) {
				t.Fatalf("%s: key %d value %d is %v, want %v (arrival order within a key)",
					name, want[i].Key, j, got[i].Values[j], want[i].Values[j])
			}
		}
	}
}

// bucketsOf copies each run of pairs into a Bucket, the map tasks' output
// form that groupByKey reads.
func bucketsOf(runs ...[]Pair) []Bucket {
	buckets := make([]Bucket, len(runs))
	for i, run := range runs {
		for _, p := range run {
			buckets[i].Append(p.Key, p.Value)
		}
	}
	return buckets
}

// cutRuns cuts pairs into between one and eight runs at random points,
// empty runs among them, as map tasks' buckets for one reducer.
func cutRuns(rng *rand.Rand, pairs []Pair) [][]Pair {
	runs := make([][]Pair, 1+rng.Intn(8))
	for i := range runs[:len(runs)-1] {
		n := rng.Intn(len(pairs) + 1)
		runs[i], pairs = pairs[:n], pairs[n:]
	}
	runs[len(runs)-1] = pairs
	return runs
}

// TestGroupByKeyEqualsStableSortThenRuns: the shuffle's grouping has one
// right answer — groups in ascending key order, each group's values in
// arrival order — whatever way it is computed, and however the map tasks'
// buckets cut the arrivals into runs.
func TestGroupByKeyEqualsStableSortThenRuns(t *testing.T) {
	checkGroups(t, "empty", groupByKey(nil), nil)
	checkGroups(t, "empty runs", groupByKey(make([]Bucket, 3)), nil)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		keys := 1 + rng.Intn(40)
		if seed%10 == 0 {
			keys = 1
		}
		pairs := randomPairs(rng, n, keys)
		want := groupBySortRef(pairs)
		checkGroups(t, fmt.Sprintf("seed %d, one run", seed), groupByKey(bucketsOf(pairs)), want)
		checkGroups(t, fmt.Sprintf("seed %d, cut into runs", seed), groupByKey(bucketsOf(cutRuns(rng, pairs)...)), want)
	}
}
