package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// wordSplits builds splits of whitespace-separated words.
func wordSplits(texts ...string) []Split {
	splits := make([]Split, len(texts))
	for i, tx := range texts {
		splits[i] = Split{Name: fmt.Sprintf("split-%d", i), Data: []byte(tx)}
	}
	return splits
}

// wordLenMapper emits (len(word), word) for each word in the split.
var wordLenMapper = MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
	for _, w := range strings.Fields(string(split.Data)) {
		emit(uint64(len(w)), []byte(w))
	}
	return nil
})

// countReducer emits (key, count-of-values).
var countReducer = ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
	emit(key, []byte(strconv.Itoa(len(values))))
	return nil
})

func runWordCount(t *testing.T, cfg Config) map[uint64]int {
	t.Helper()
	res, err := Run(cfg, wordSplits("a bb ccc bb a", "dddd a bb", "ccc ccc"), wordLenMapper, countReducer)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]int{}
	for _, p := range res.Output {
		n, err := strconv.Atoi(string(p.Value))
		if err != nil {
			t.Fatal(err)
		}
		got[p.Key] += n
	}
	return got
}

func TestWordCountByLength(t *testing.T) {
	want := map[uint64]int{1: 3, 2: 3, 3: 3, 4: 1}
	for _, reducers := range []int{1, 2, 7} {
		got := runWordCount(t, Config{NumReducers: reducers})
		for k, v := range want {
			if got[k] != v {
				t.Errorf("reducers=%d: count[%d] = %d, want %d", reducers, k, got[k], v)
			}
		}
	}
}

func TestGroupingAllValuesSameKeyTogether(t *testing.T) {
	// Each key group must be delivered to exactly one Reduce invocation.
	seen := map[uint64]int{}
	reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
		seen[key]++
		return nil
	})
	// Single reducer so the map write is race-free.
	_, err := Run(Config{NumReducers: 1}, wordSplits("x y zz zz x"), wordLenMapper, reducer)
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %d reduced %d times, want once", k, n)
		}
	}
}

func TestReduceKeysSortedWithinReducer(t *testing.T) {
	var keys []uint64
	reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
		keys = append(keys, key)
		return nil
	})
	mapper := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
		for _, k := range []uint64{9, 3, 7, 1, 3, 9, 5} {
			emit(k, nil)
		}
		return nil
	})
	if _, err := Run(Config{NumReducers: 1}, wordSplits("x"), mapper, reducer); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Errorf("keys not sorted: %v", keys)
	}
}

func TestCustomPartitioner(t *testing.T) {
	// Route everything to reducer 2 and confirm with per-task metrics.
	cfg := Config{
		NumReducers: 4,
		Partitioner: func(key uint64, n int) int { return 2 },
	}
	res, err := Run(cfg, wordSplits("a bb ccc"), wordLenMapper, countReducer)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range res.Metrics.ReduceTasks {
		if rt.TaskID != 2 && rt.RecordsIn != 0 {
			t.Errorf("reducer %d got %d records, want 0", rt.TaskID, rt.RecordsIn)
		}
		if rt.TaskID == 2 && rt.RecordsIn != 3 {
			t.Errorf("reducer 2 got %d records, want 3", rt.RecordsIn)
		}
	}
}

func TestShuffleMetrics(t *testing.T) {
	res, err := Run(Config{NumReducers: 2}, wordSplits("aa bb"), wordLenMapper, countReducer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ShuffleRecords != 2 {
		t.Errorf("ShuffleRecords = %d, want 2", res.Metrics.ShuffleRecords)
	}
	// 2 records × (8 key bytes + 2 value bytes)
	if res.Metrics.ShuffleBytes != 20 {
		t.Errorf("ShuffleBytes = %d, want 20", res.Metrics.ShuffleBytes)
	}
}

func TestCounters(t *testing.T) {
	mapper := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
		ctx.Inc("points.scanned", 10)
		return nil
	})
	reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
		ctx.Inc("comparisons", 5)
		return nil
	})
	// Force at least one key so the reducer runs.
	mapper2 := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
		if err := mapper.Map(ctx, split, emit); err != nil {
			return err
		}
		emit(1, nil)
		return nil
	})
	res, err := Run(Config{NumReducers: 1}, wordSplits("x", "y", "z"), mapper2, reducer)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Counter("points.scanned"); got != 30 {
		t.Errorf("points.scanned = %d, want 30", got)
	}
	if got := res.Metrics.Counter("comparisons"); got != 5 {
		t.Errorf("comparisons = %d, want 5", got)
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	mapper := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error { return boom })
	if _, err := Run(Config{NumReducers: 1}, wordSplits("x"), mapper, countReducer); !errors.Is(err, boom) {
		t.Errorf("want boom, got %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error { return boom })
	if _, err := Run(Config{NumReducers: 1}, wordSplits("x y"), wordLenMapper, reducer); !errors.Is(err, boom) {
		t.Errorf("want boom, got %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(Config{NumReducers: 3}, nil, wordLenMapper, countReducer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Errorf("output = %v, want empty", res.Output)
	}
	if len(res.Metrics.ReduceTasks) != 3 {
		t.Errorf("reduce tasks = %d, want 3", len(res.Metrics.ReduceTasks))
	}
}

func TestValueBytesPreserved(t *testing.T) {
	payload := []byte{0, 1, 2, 255, 254}
	mapper := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
		emit(7, payload)
		return nil
	})
	reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
		for _, v := range values {
			emit(key, v)
		}
		return nil
	})
	res, err := Run(Config{NumReducers: 1}, wordSplits("x"), mapper, reducer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || !bytes.Equal(res.Output[0].Value, payload) {
		t.Errorf("output = %v", res.Output)
	}
}

func TestDeterministicOutputAcrossParallelism(t *testing.T) {
	run := func(par int) []Pair {
		res, err := Run(Config{NumReducers: 4, Parallelism: par},
			wordSplits("a bb ccc bb a", "dddd a bb", "ccc ccc"), wordLenMapper, countReducer)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]Pair(nil), res.Output...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	a, b := run(1), run(8)
	if len(a) != len(b) {
		t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("output %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManySplitsManyReducers(t *testing.T) {
	var splits []Split
	for i := 0; i < 100; i++ {
		splits = append(splits, Split{Name: fmt.Sprintf("s%d", i), Data: []byte("aa bbb c")})
	}
	got := map[uint64]int{}
	res, err := Run(Config{NumReducers: 16}, splits, wordLenMapper, countReducer)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Output {
		n, _ := strconv.Atoi(string(p.Value))
		got[p.Key] += n
	}
	if got[1] != 100 || got[2] != 100 || got[3] != 100 {
		t.Errorf("counts = %v", got)
	}
}

// TestGroupByKeyAllocs: grouping allocates the slot map, the group list and
// one backing array for every group's values (29 objects for 100 groups) —
// not a slice per group, nothing per pair, and no sort of the pairs. The
// sort + run scan it replaced made 111 here. The same pairs as one bucket
// from each of eight map tasks stay under the same ceiling: the runs are
// read where they are, not concatenated.
func TestGroupByKeyAllocs(t *testing.T) {
	const groups, ceiling = 100, 50
	pairs := make([]Pair, 5000)
	for i := range pairs {
		pairs[i] = Pair{Key: uint64(i*7919) % groups, Value: []byte{byte(i)}}
	}
	runs := make([][]Pair, 8)
	for i := range runs {
		runs[i] = pairs[i*len(pairs)/len(runs) : (i+1)*len(pairs)/len(runs)]
	}
	for _, c := range []struct {
		name string
		runs []Bucket
	}{{"one run", bucketsOf(pairs)}, {"eight runs", bucketsOf(runs...)}} {
		if got := len(groupByKey(c.runs)); got != groups {
			t.Fatalf("%s: %d groups, want %d", c.name, got, groups)
		}
		if allocs := testing.AllocsPerRun(20, func() { groupByKey(c.runs) }); allocs > ceiling {
			t.Errorf("%s: groupByKey made %.0f allocations for %d pairs in %d groups, ceiling %d", c.name, allocs, len(pairs), groups, ceiling)
		}
	}
}

// TestReduceCores holds the cores rule at its edges: Parallelism is shared
// among the reduce tasks that got at least one group, never below one core
// a task, and a map task always runs on one.
func TestReduceCores(t *testing.T) {
	for _, tc := range []struct {
		reducers, busy, parallelism, want int
	}{
		{reducers: 4, busy: 1, parallelism: 4, want: 4},
		{reducers: 8, busy: 8, parallelism: 2, want: 1},
		{reducers: 4, busy: 3, parallelism: 8, want: 2},
	} {
		name := fmt.Sprintf("%d of %d busy at parallelism %d", tc.busy, tc.reducers, tc.parallelism)
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			cores := map[int]int{} // reduce task → Cores() seen by its groups
			mapper := MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
				if c := ctx.Cores(); c != 1 {
					t.Errorf("map task %d: Cores() = %d, want 1", ctx.TaskID, c)
				}
				for key := 0; key < tc.busy; key++ {
					emit(uint64(key), []byte{byte(key)})
				}
				return nil
			})
			reducer := ReducerFunc(func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
				mu.Lock()
				cores[ctx.TaskID] = ctx.Cores()
				mu.Unlock()
				return nil
			})
			cfg := Config{NumReducers: tc.reducers, Parallelism: tc.parallelism}
			if _, err := Run(cfg, wordSplits("x", "y"), mapper, reducer); err != nil {
				t.Fatal(err)
			}
			if len(cores) != tc.busy {
				t.Fatalf("%d reduce tasks ran a group, want %d", len(cores), tc.busy)
			}
			for task, c := range cores {
				if c != tc.want {
					t.Errorf("reduce task %d: Cores() = %d, want %d", task, c, tc.want)
				}
			}
		})
	}
}
