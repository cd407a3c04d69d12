// Package mapreduce is a hand-rolled MapReduce engine with the semantics
// DOD relies on: independent map tasks over input splits, a byte-level
// shuffle that partitions and groups intermediate records by key, and
// independent reduce tasks. There is no synchronization between tasks of
// the same phase, matching the shared-nothing execution model of Sec. I.
//
// The engine is deliberately faithful where it matters for the paper:
//
//   - Intermediate records are real serialized bytes, so shuffle volume —
//     the communication cost the single-pass framework minimizes — is
//     measured, not estimated.
//   - Per-task wall times and per-task counters are recorded, so core can
//     schedule them (binpack.LPT) to obtain the makespan of a simulated
//     40-node cluster.
//
// Task execution is pluggable: Config.Executor runs individual tasks,
// defaulting to the in-process executor. The distributed runtime
// (internal/dist) substitutes an executor that ships tasks to remote
// workers over the network and re-runs them elsewhere when a worker is
// lost; the driver keeps owning scheduling, the shuffle, and result
// assembly either way. The driver runs each task once.
//
// Keys are uint64 (DOD keys records by grid-cell / partition ID, Fig. 2);
// values are opaque byte slices.
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"dod/internal/codec"
	"dod/internal/obs"
)

// Pair is one output record: the codec's key/value record, so a reduce
// task's output ships between processes (codec.AppendKVs) and comes back
// (codec.DecodeKVs) without a conversion.
type Pair = codec.KV

// Bucket is one map task's intermediate records for one reducer, in emit
// order: keys, value end offsets and one byte arena (codec.KVColumns). It
// holds no pointer per record, so the garbage collector does not scan the
// shuffle, and it ships between processes (codec.AppendKVColumns) in the
// same bytes as the equivalent []Pair.
type Bucket = codec.KVColumns

// Split is one unit of map input.
type Split struct {
	Name string
	Data []byte
}

// Group is one reduce key group: a key and every value shuffled to it.
type Group struct {
	Key    uint64
	Values [][]byte
}

// Emit is the record-output callback handed to map and reduce functions.
// Emit copies value before it returns, so the caller may reuse its buffer
// for the next record at once.
type Emit func(key uint64, value []byte)

// Mapper processes one input split.
type Mapper interface {
	Map(ctx *TaskContext, split Split, emit Emit) error
}

// Reducer processes one key group. Values arrive in arbitrary order within
// the group, as in Hadoop.
type Reducer interface {
	Reduce(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(ctx *TaskContext, split Split, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(ctx *TaskContext, split Split, emit Emit) error {
	return f(ctx, split, emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(ctx *TaskContext, key uint64, values [][]byte, emit Emit) error {
	return f(ctx, key, values, emit)
}

// Partitioner routes an intermediate key to one of n reduce tasks. DOD
// installs a custom partitioner built from the DMT allocation plan (Step 3
// of Sec. V-A); the default is key % n.
type Partitioner func(key uint64, numReducers int) int

// DefaultPartitioner hashes keys to reducers by modulo.
func DefaultPartitioner(key uint64, numReducers int) int {
	return int(key % uint64(numReducers))
}

// MapTask is one map task handed to an Executor.
type MapTask struct {
	TaskID      int
	Split       Split
	NumReducers int
}

// MapResult is a successful map task: its output partitioned into
// per-reducer buckets, Buckets[r] holding reducer r's records in emit
// order, plus its execution metric. Each bucket's arena holds copies of the
// emitted values; the shuffle hands reducers slices of it.
type MapResult struct {
	Buckets []Bucket
	Metric  TaskMetric
	// Spans are trace spans recorded while the task ran. The in-process
	// executor records directly onto the job trace and leaves this nil;
	// remote executors ship spans back here and the driver folds them in.
	Spans []obs.Span
}

// ReduceTask is one reduce task handed to an Executor.
type ReduceTask struct {
	TaskID int
	Groups []Group
	// Cores is how many cores the task's user code may use at once.
	// RunContext sets it after the shuffle to Parallelism divided among
	// the reduce tasks that have at least one group, so a task whose
	// peers got nothing runs on their cores too. It is not on the wire: a
	// task decoded on a remote worker has 0 and runs on one core.
	Cores int
}

// ReduceResult is a successful reduce task.
type ReduceResult struct {
	Output []Pair
	Metric TaskMetric
	Spans  []obs.Span
}

// Executor runs individual tasks. The default executor runs them
// in-process on the calling goroutine; the distributed runtime substitutes
// one that ships tasks to remote workers. An executor must be safe for
// concurrent use: the driver invokes it from its worker pool.
//
// An executor owns task recovery: where a task runs, how its output gets
// back, and re-running it elsewhere when that fails (internal/dist
// re-dispatches on its own; DESIGN.md §6). The driver calls ExecMap or
// ExecReduce once per task, and any error an executor returns fails the
// job.
type Executor interface {
	ExecMap(ctx context.Context, task MapTask) (*MapResult, error)
	ExecReduce(ctx context.Context, task ReduceTask) (*ReduceResult, error)
}

// Config controls one job execution.
type Config struct {
	NumReducers int         // reduce task count; must be >= 1
	Parallelism int         // concurrent task goroutines; default GOMAXPROCS
	Partitioner Partitioner // default DefaultPartitioner

	// Executor runs tasks; default the in-process executor.
	Executor Executor

	// Trace, when set, receives spans recorded by task user code (via
	// TaskContext.Trace) and spans shipped back by remote executors.
	Trace *obs.Trace

	// Seed is read by nothing in the engine: the driver runs every task
	// once and draws no random numbers. It stays because the benchmark
	// module (bench/) sets it.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumReducers < 1 {
		c.NumReducers = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Partitioner == nil {
		c.Partitioner = DefaultPartitioner
	}
	return c
}

// TaskContext carries per-task identity, counters, and the span sink into
// user code.
type TaskContext struct {
	Phase  string // "map" or "reduce"
	TaskID int

	// Trace receives spans recorded by user code ("partition.detect", ...).
	// It may be the job's trace (in-process execution) or a per-task trace
	// whose spans are shipped back over the wire (remote execution). A nil
	// Trace is a valid no-op sink.
	Trace *obs.Trace

	cores    int
	mu       sync.Mutex
	counters map[string]int64
}

// Cores returns how many cores the task's user code may use at once: its
// ReduceTask.Cores, and 1 for a map task or a task that was given none.
// User code passes it as a worker count to a kernel whose output does not
// depend on the worker count (detect.DetectSetParallel).
func (tc *TaskContext) Cores() int { return max(1, tc.cores) }

// Inc adds delta to the named per-task counter. Counters are aggregated
// into TaskMetric.Counters and into job-level totals.
func (tc *TaskContext) Inc(name string, delta int64) {
	tc.mu.Lock()
	if tc.counters == nil {
		tc.counters = make(map[string]int64)
	}
	tc.counters[name] += delta
	tc.mu.Unlock()
}

// TaskMetric records the execution of one task.
type TaskMetric struct {
	TaskID     int
	Duration   time.Duration
	RecordsIn  int64
	RecordsOut int64
	BytesIn    int64
	BytesOut   int64
	Counters   map[string]int64
}

// Metrics aggregates a job run.
type Metrics struct {
	MapTasks    []TaskMetric
	ReduceTasks []TaskMetric

	ShuffleBytes   int64 // total serialized intermediate bytes moved
	ShuffleRecords int64
	Counters       map[string]int64 // merged task counters

	MapWall     time.Duration // wall-clock of the map phase
	ShuffleWall time.Duration
	ReduceWall  time.Duration
}

// Counter returns the job-level value of a named counter.
func (m *Metrics) Counter(name string) int64 { return m.Counters[name] }

// Result is the output of a job.
type Result struct {
	Output  []Pair // all reduce emissions, ordered by (reducer, key)
	Metrics Metrics
}

// localExecutor runs tasks in-process on the calling goroutine —
// the engine's historical behavior, now behind the Executor seam.
type localExecutor struct {
	mapper      Mapper
	reducer     Reducer
	partitioner Partitioner
	trace       *obs.Trace
}

// NewLocalExecutor returns the in-process executor RunContext installs by
// default, built from a job's functions. The worker side of a distributed
// engine reuses it to execute shipped tasks with identical semantics:
// trace receives the spans user code records via TaskContext.Trace.
func NewLocalExecutor(mapper Mapper, reducer Reducer, partitioner Partitioner, trace *obs.Trace) Executor {
	if partitioner == nil {
		partitioner = DefaultPartitioner
	}
	return &localExecutor{mapper: mapper, reducer: reducer, partitioner: partitioner, trace: trace}
}

func (e *localExecutor) ExecMap(ctx context.Context, task MapTask) (*MapResult, error) {
	tc := &TaskContext{Phase: "map", TaskID: task.TaskID, Trace: e.trace}
	buckets := make([]Bucket, task.NumReducers)
	var out, bytesOut int64
	start := time.Now()
	emit := func(key uint64, value []byte) {
		buckets[e.partitioner(key, task.NumReducers)].Append(key, value)
		out++
		bytesOut += int64(8 + len(value))
	}
	if err := e.mapper.Map(tc, task.Split, emit); err != nil {
		return nil, err
	}
	return &MapResult{
		Buckets: buckets,
		Metric: TaskMetric{
			TaskID: task.TaskID, Duration: time.Since(start),
			RecordsIn: 1, RecordsOut: out,
			BytesIn: int64(len(task.Split.Data)), BytesOut: bytesOut,
			Counters: tc.counters,
		},
	}, nil
}

func (e *localExecutor) ExecReduce(ctx context.Context, task ReduceTask) (*ReduceResult, error) {
	tc := &TaskContext{Phase: "reduce", TaskID: task.TaskID, Trace: e.trace, cores: task.Cores}
	var output codec.KVColumns
	var in, out, bytesIn, bytesOut int64
	start := time.Now()
	emit := func(key uint64, value []byte) {
		output.Append(key, value)
		out++
		bytesOut += int64(8 + len(value))
	}
	for _, g := range task.Groups {
		// Cancellation is checked between key groups, so a long reduce
		// task stops at the next partition boundary instead of running to
		// completion.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in += int64(len(g.Values))
		for _, v := range g.Values {
			bytesIn += int64(8 + len(v))
		}
		if err := e.reducer.Reduce(tc, g.Key, g.Values, emit); err != nil {
			return nil, err
		}
	}
	return &ReduceResult{
		Output: output.Pairs(),
		Metric: TaskMetric{
			TaskID: task.TaskID, Duration: time.Since(start),
			RecordsIn: in, RecordsOut: out,
			BytesIn: bytesIn, BytesOut: bytesOut,
			Counters: tc.counters,
		},
	}, nil
}

// Run executes one MapReduce job over the given splits without a
// cancellation context; see RunContext.
func Run(cfg Config, splits []Split, mapper Mapper, reducer Reducer) (*Result, error) {
	return RunContext(context.Background(), cfg, splits, mapper, reducer)
}

// RunContext executes one MapReduce job over the given splits with
// cooperative cancellation: the worker pools stop dispatching tasks and
// reduce tasks stop between key groups once ctx is done, and the job
// returns ctx.Err(). A task already inside user map/reduce code finishes
// its current group first — cancellation is prompt at group granularity,
// which for the detection job means per partition.
func RunContext(jobCtx context.Context, cfg Config, splits []Split, mapper Mapper, reducer Reducer) (*Result, error) {
	cfg = cfg.withDefaults()
	exec := cfg.Executor
	if exec == nil {
		exec = NewLocalExecutor(mapper, reducer, cfg.Partitioner, cfg.Trace)
	}

	// ---- Map phase ----
	mapStart := time.Now()
	mapOuts := make([]*MapResult, len(splits))
	if err := runTasks(jobCtx, cfg.Parallelism, len(splits), func(i int) error {
		res, err := exec.ExecMap(jobCtx, MapTask{TaskID: i, Split: splits[i], NumReducers: cfg.NumReducers})
		if err != nil {
			return fmt.Errorf("map task %d: %w", i, err)
		}
		res.Metric.TaskID = i
		mapOuts[i] = res
		addSpans(cfg.Trace, res.Spans)
		return nil
	}); err != nil {
		return nil, err
	}
	mapWall := time.Since(mapStart)

	// ---- Shuffle: group each reducer's buckets by key, in task order ----
	shuffleStart := time.Now()
	var shuffleBytes, shuffleRecords int64
	for _, mo := range mapOuts {
		for i := range mo.Buckets {
			b := &mo.Buckets[i]
			shuffleBytes += int64(8*b.Len() + len(b.Data))
			shuffleRecords += int64(b.Len())
		}
	}
	grouped := make([][]Group, cfg.NumReducers)
	if err := runTasks(jobCtx, cfg.Parallelism, cfg.NumReducers, func(r int) error {
		runs := make([]Bucket, len(mapOuts))
		for i, mo := range mapOuts {
			runs[i] = mo.Buckets[r]
		}
		grouped[r] = groupByKey(runs)
		return nil
	}); err != nil {
		return nil, err
	}
	shuffleWall := time.Since(shuffleStart)

	// ---- Reduce phase ----
	reduceStart := time.Now()
	cores := reduceCores(cfg.Parallelism, grouped)
	reduceOuts := make([]*ReduceResult, cfg.NumReducers)
	if err := runTasks(jobCtx, cfg.Parallelism, cfg.NumReducers, func(r int) error {
		res, err := exec.ExecReduce(jobCtx, ReduceTask{TaskID: r, Groups: grouped[r], Cores: cores})
		if err != nil {
			return fmt.Errorf("reduce task %d: %w", r, err)
		}
		res.Metric.TaskID = r
		reduceOuts[r] = res
		addSpans(cfg.Trace, res.Spans)
		return nil
	}); err != nil {
		return nil, err
	}
	reduceWall := time.Since(reduceStart)

	// ---- Assemble result ----
	res := &Result{
		Metrics: Metrics{
			ShuffleBytes:   shuffleBytes,
			ShuffleRecords: shuffleRecords,
			Counters:       make(map[string]int64),
			MapWall:        mapWall,
			ShuffleWall:    shuffleWall,
			ReduceWall:     reduceWall,
		},
	}
	for _, mo := range mapOuts {
		res.Metrics.MapTasks = append(res.Metrics.MapTasks, mo.Metric)
		for k, v := range mo.Metric.Counters {
			res.Metrics.Counters[k] += v
		}
	}
	outputs := 0
	for _, ro := range reduceOuts {
		outputs += len(ro.Output)
	}
	res.Output = slices.Grow(res.Output, outputs)
	for _, ro := range reduceOuts {
		res.Metrics.ReduceTasks = append(res.Metrics.ReduceTasks, ro.Metric)
		for k, v := range ro.Metric.Counters {
			res.Metrics.Counters[k] += v
		}
		res.Output = append(res.Output, ro.Output...)
	}
	return res, nil
}

// reduceCores shares parallelism among the reduce tasks that have work:
// each gets max(1, parallelism / busy) cores, where busy counts the tasks
// with at least one group. A task without groups returns at once, so the
// cores it would have held go to the busy ones.
func reduceCores(parallelism int, grouped [][]Group) int {
	busy := 0
	for _, g := range grouped {
		if len(g) > 0 {
			busy++
		}
	}
	return max(1, parallelism/max(1, busy))
}

// addSpans folds remotely recorded spans into the job trace.
func addSpans(tr *obs.Trace, spans []obs.Span) {
	if tr == nil {
		return
	}
	for _, s := range spans {
		tr.Add(s.Name, s.Start, s.Duration, s.Attrs...)
	}
}

// groupByKey groups one reducer's map output, its bucket from each map
// task in task order, by key: groups in ascending key order, each group's
// values in the order they arrived — what concatenating the runs, a stable
// sort by key and a scan of the key runs produce, without moving a record.
// One pass gives each distinct key a slot and counts it, a second files
// each value, a slice of its bucket's arena, and only the groups are
// sorted.
func groupByKey(runs []Bucket) []Group {
	slot := make(map[uint64]int) // key → index into groups, in first-arrival order
	var groups []Group
	var counts []int
	total := 0
	for r := range runs {
		total += runs[r].Len()
		for _, key := range runs[r].Keys {
			s, ok := slot[key]
			if !ok {
				s = len(groups)
				slot[key] = s
				groups = append(groups, Group{Key: key})
				counts = append(counts, 0)
			}
			counts[s]++
		}
	}
	// One backing array holds every group's values; each group gets its
	// exact share, capacity-clipped so an append by user code cannot reach
	// its neighbor's.
	values := make([][]byte, total)
	for s, n := range counts {
		groups[s].Values = values[:0:n]
		values = values[n:]
	}
	for r := range runs {
		for i, key := range runs[r].Keys {
			g := &groups[slot[key]]
			g.Values = append(g.Values, runs[r].Value(i))
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	return groups
}

// runTasks executes fn(0..n-1) on a bounded worker pool, returning the
// first error. Workers re-check ctx before claiming each task, so a
// cancelled job stops dispatching promptly and returns ctx.Err().
func runTasks(ctx context.Context, parallelism, n int, fn func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if n == 0 {
		return ctx.Err()
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
		next    int
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstEr == nil {
					firstEr = ctx.Err()
				}
				if firstEr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}
