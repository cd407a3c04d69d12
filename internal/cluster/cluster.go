// Package cluster simulates scheduling MapReduce tasks on a shared-nothing
// cluster. The paper's testbed is 40 slave nodes × 8 concurrent tasks; our
// engine runs in-process, so to report paper-comparable end-to-end times we
// replay measured (or modeled) per-task costs through a deterministic
// scheduler and report the makespan.
//
// The makespan of the reduce phase — the cost of the most loaded reducer —
// is exactly the quantity cost(P(D)) that Def. 3.4/3.5 minimize, so the
// simulation reproduces the axis the paper's figures plot.
package cluster

import (
	"sort"
	"time"
)

// Config describes the simulated cluster.
type Config struct {
	Nodes        int // worker machines
	SlotsPerNode int // concurrent tasks per machine
}

// PaperCluster mirrors the experimental setup in Sec. VI-A: 40 slaves, up to
// 8 reduce tasks each.
var PaperCluster = Config{Nodes: 40, SlotsPerNode: 8}

// Slots returns the total number of concurrent task slots.
func (c Config) Slots() int {
	n := c.Nodes * c.SlotsPerNode
	if n < 1 {
		return 1
	}
	return n
}

// Task is one schedulable unit with a known duration.
type Task struct {
	Name     string
	Duration time.Duration
}

// Assignment records where a task ran in the simulation.
type Assignment struct {
	Task  Task
	Slot  int
	Start time.Duration
	End   time.Duration
}

// Schedule is the result of simulating one phase.
type Schedule struct {
	Assignments []Assignment
	Makespan    time.Duration
}

// RunPhase simulates executing tasks on the cluster using longest-
// processing-time-first list scheduling (the classic 4/3-approximation for
// makespan, and how Hadoop's slowest-task-dominates behaviour shakes out):
// each task, longest first, goes to the slot that frees earliest. It is
// deterministic: ties are broken by task name and slot index.
func RunPhase(cfg Config, tasks []Task) Schedule {
	sorted := append([]Task(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Duration != sorted[j].Duration {
			return sorted[i].Duration > sorted[j].Duration
		}
		return sorted[i].Name < sorted[j].Name
	})

	free := make([]time.Duration, cfg.Slots())
	sched := Schedule{Assignments: make([]Assignment, 0, len(sorted))}
	for _, task := range sorted {
		best := 0
		for s := range free {
			if free[s] < free[best] {
				best = s
			}
		}
		a := Assignment{Task: task, Slot: best, Start: free[best], End: free[best] + task.Duration}
		sched.Assignments = append(sched.Assignments, a)
		free[best] = a.End
		if a.End > sched.Makespan {
			sched.Makespan = a.End
		}
	}
	return sched
}

// PhaseBreakdown is the simulated wall time of each MapReduce stage,
// matching the axes of Fig. 10.
type PhaseBreakdown struct {
	Preprocess time.Duration
	Map        time.Duration
	Shuffle    time.Duration
	Reduce     time.Duration
}

// Total returns the end-to-end simulated time.
func (b PhaseBreakdown) Total() time.Duration {
	return b.Preprocess + b.Map + b.Shuffle + b.Reduce
}

// Imbalance returns max/mean load across the busy slots of a schedule — a
// load-balance quality metric used by the partitioning experiments. A
// perfectly balanced phase returns 1. An empty phase returns 0.
func (s Schedule) Imbalance() float64 {
	if len(s.Assignments) == 0 {
		return 0
	}
	load := map[int]time.Duration{}
	for _, a := range s.Assignments {
		load[a.Slot] += a.Task.Duration
	}
	var sum time.Duration
	var max time.Duration
	for _, l := range load {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := float64(sum) / float64(len(load))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}
