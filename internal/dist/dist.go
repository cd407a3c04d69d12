// Package dist is the real distributed execution runtime: a coordinator
// that owns job control (scheduling, shuffle, retries) and workers that
// execute map and reduce tasks on other processes or machines,
// speaking HTTP with internal/codec framed bodies.
//
// The runtime slots under internal/mapreduce through its Executor seam: the
// coordinator-side remote executor ships each task to a polling
// worker and returns the worker's output to the unchanged MapReduce driver.
// The topology is a star — workers long-poll the coordinator for tasks
// (the poll doubles as a heartbeat) and stream results back, so workers
// need no inbound connectivity and can sit behind NAT.
//
// Robustness is first-class, and every timing derives from the lease:
//
//   - Heartbeats and leases: a worker that stops polling past its lease is
//     declared lost; every task attempt it was running is re-queued at
//     once for a surviving worker.
//   - Nacks: a worker that receives a corrupted task payload hands the
//     dispatch back, and the task is re-queued at once.
//   - Deadlines: every dispatch has one — the lease, or 4 × the phase's
//     median task time once three tasks have finished — doubling with each
//     earlier dispatch of the task. Past it the task is re-queued at once;
//     the first result of any of its dispatches wins.
//   - Worker retries: a worker reads the lease at join and backs off from
//     a hundredth of it up to a fifth, with full jitter.
//   - Determinism: tasks are pure functions of their payload, so
//     re-execution never changes results — a cluster run is byte-identical
//     to the in-process engine on the same seed.
//
// Workers know how to build job logic from a JobSpec via the job registry:
// the coordinator ships {kind, config} and the worker's registered builder
// reconstructs the mapper/reducer/partitioner locally (internal/core
// registers the detection job; its config carries the partition plan, the
// detection parameters, and the seed). Payloads — input splits, reduce key
// groups, output pairs — travel in internal/codec wire format, so shuffle
// volume over the network is the same serialized bytes the in-process
// engine measures.
package dist

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"dod/internal/errs"
	"dod/internal/mapreduce"
)

// JobSpec names a registered job kind plus its serialized configuration —
// everything a worker needs to rebuild the job's functions.
type JobSpec struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config"`
}

// Job bundles the executable pieces of one MapReduce job, rebuilt on the
// worker from a JobSpec.
type Job struct {
	Mapper      mapreduce.Mapper
	Reducer     mapreduce.Reducer
	Partitioner mapreduce.Partitioner // optional; default key % n
}

// JobBuilder reconstructs a Job from its serialized config.
type JobBuilder func(config []byte) (*Job, error)

var (
	regMu    sync.RWMutex
	registry = map[string]JobBuilder{}
)

// RegisterJob installs the builder for a job kind. Packages defining
// distributable jobs call it from init (internal/core registers
// "dod.detect/v1"), so any binary importing them — cmd/dodworker most
// importantly — can execute the job's tasks.
func RegisterJob(kind string, build JobBuilder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("dist: job kind %q registered twice", kind))
	}
	registry[kind] = build
}

// BuildJob reconstructs a job from its wire spec via the registry.
func BuildJob(spec JobSpec) (*Job, error) {
	regMu.RLock()
	build := registry[spec.Kind]
	regMu.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("%w: unknown job kind %q (worker binary lacks its registration import?)", errs.ErrJobAborted, spec.Kind)
	}
	job, err := build(spec.Config)
	if err != nil {
		return nil, fmt.Errorf("dist: building job %q: %w", spec.Kind, err)
	}
	if job.Mapper == nil || job.Reducer == nil {
		return nil, fmt.Errorf("dist: job %q built without mapper or reducer", spec.Kind)
	}
	if job.Partitioner == nil {
		job.Partitioner = mapreduce.DefaultPartitioner
	}
	return job, nil
}

// RegisteredKinds lists the job kinds this binary can execute, sorted.
func RegisteredKinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	kinds := make([]string, 0, len(registry))
	for k := range registry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
