package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dod/internal/codec"
)

// refExecMap is the reference map-side shuffle: every emitted pair is kept
// as a Pair in its reducer's bucket, in emit order, holding the caller's
// value slice.
func refExecMap(kvs []Pair, numReducers int, partitioner Partitioner) [][]Pair {
	buckets := make([][]Pair, numReducers)
	for _, p := range kvs {
		r := partitioner(p.Key, numReducers)
		buckets[r] = append(buckets[r], Pair{Key: p.Key, Value: p.Value})
	}
	return buckets
}

// refGroupByKey is the reference grouping of one reducer's runs (its bucket
// from each map task, in task order): groups in ascending key order, each
// group's values in arrival order.
func refGroupByKey(runs [][]Pair) []Group {
	slot := make(map[uint64]int)
	var groups []Group
	for _, run := range runs {
		for _, p := range run {
			s, ok := slot[p.Key]
			if !ok {
				s = len(groups)
				slot[p.Key] = s
				groups = append(groups, Group{Key: p.Key})
			}
			groups[s].Values = append(groups[s].Values, p.Value)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	return groups
}

// shuffleCase draws one map task's emits: keys from a small range so they
// repeat within and across tasks, values of 0–6 random bytes (a fifth of
// them empty).
func shuffleCase(rng *rand.Rand, keys int) []Pair {
	kvs := make([]Pair, rng.Intn(40))
	for i := range kvs {
		v := make([]byte, rng.Intn(7))
		if rng.Intn(5) == 0 {
			v = v[:0]
		}
		rng.Read(v)
		kvs[i] = Pair{Key: uint64(rng.Intn(keys)) * 0x9e3779b9, Value: v}
	}
	return kvs
}

// TestShuffleMatchesPairs drives seeded emits through Run and through the
// reference shuffle, and holds every reduce task's groups, and the job's
// output, to the reference byte for byte. Each split carries its task's
// emits as an AppendKVs list; the mapper emits them in order and the
// reducer records the groups it is handed.
func TestShuffleMatchesPairs(t *testing.T) {
	partitioners := []Partitioner{DefaultPartitioner, func(key uint64, n int) int { return int((key >> 7) % uint64(n)) }}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numReducers := 1 + int(seed%8)
		tasks := 1 + int(seed*3%10)
		partitioner := partitioners[seed%2]
		emits := make([][]Pair, tasks)
		splits := make([]Split, tasks)
		for i := range splits {
			emits[i] = shuffleCase(rng, 1+rng.Intn(12))
			splits[i] = Split{Name: fmt.Sprintf("s%d", i), Data: codec.AppendKVs(nil, emits[i])}
		}

		mapper := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			kvs, _, err := codec.DecodeKVs(split.Data)
			if err != nil {
				return err
			}
			for _, p := range kvs {
				emit(p.Key, p.Value)
			}
			return nil
		})
		var mu sync.Mutex
		got := make([][]Group, numReducers)
		reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
			g := Group{Key: key}
			var joined []byte
			for _, v := range values {
				g.Values = append(g.Values, append([]byte{}, v...))
				joined = append(append(joined, byte(len(v))), v...)
			}
			mu.Lock()
			got[ctx.TaskID] = append(got[ctx.TaskID], g)
			mu.Unlock()
			emit(key, joined)
			return nil
		})
		res, err := Run(Config{NumReducers: numReducers, Parallelism: 3, Partitioner: partitioner}, splits, mapper, reducer)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		buckets := make([][][]Pair, tasks)
		for i, kvs := range emits {
			buckets[i] = refExecMap(kvs, numReducers, partitioner)
		}
		var wantOut []Pair
		for r := 0; r < numReducers; r++ {
			runs := make([][]Pair, tasks)
			for i := range buckets {
				runs[i] = buckets[i][r]
			}
			want := refGroupByKey(runs)
			if len(got[r]) != len(want) {
				t.Fatalf("seed %d reducer %d: %d groups, want %d", seed, r, len(got[r]), len(want))
			}
			for gi, g := range want {
				h := got[r][gi]
				if h.Key != g.Key || len(h.Values) != len(g.Values) {
					t.Fatalf("seed %d reducer %d group %d: key %d with %d values, want key %d with %d",
						seed, r, gi, h.Key, len(h.Values), g.Key, len(g.Values))
				}
				var joined []byte
				for vi, v := range g.Values {
					if !bytes.Equal(h.Values[vi], v) {
						t.Fatalf("seed %d reducer %d key %d value %d: %x, want %x", seed, r, g.Key, vi, h.Values[vi], v)
					}
					joined = append(append(joined, byte(len(v))), v...)
				}
				wantOut = append(wantOut, Pair{Key: g.Key, Value: joined})
			}
		}
		if len(res.Output) != len(wantOut) {
			t.Fatalf("seed %d: %d output records, want %d", seed, len(res.Output), len(wantOut))
		}
		for i, p := range wantOut {
			if res.Output[i].Key != p.Key || !bytes.Equal(res.Output[i].Value, p.Value) {
				t.Fatalf("seed %d output %d: (%d, %x), want (%d, %x)", seed, i, res.Output[i].Key, res.Output[i].Value, p.Key, p.Value)
			}
		}
	}
}
