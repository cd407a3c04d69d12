package cluster

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The two list schedulers this package once had, kept as references for
// the one it has: runPhaseRef is RunPhase when it popped a min-heap of
// slots, runPhasePlacedRef is the locality-aware RunPhasePlaced, which
// scanned every slot for the earliest completion.

type refSlotState struct {
	free time.Duration
	id   int
}

type refSlotHeap []refSlotState

func (h refSlotHeap) Len() int { return len(h) }
func (h refSlotHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h refSlotHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refSlotHeap) Push(x any)   { *h = append(*h, x.(refSlotState)) }
func (h *refSlotHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func runPhaseRef(cfg Config, tasks []Task) Schedule {
	sorted := append([]Task(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Duration != sorted[j].Duration {
			return sorted[i].Duration > sorted[j].Duration
		}
		return sorted[i].Name < sorted[j].Name
	})

	h := make(refSlotHeap, cfg.Slots())
	for i := range h {
		h[i] = refSlotState{free: 0, id: i}
	}
	heap.Init(&h)

	sched := Schedule{Assignments: make([]Assignment, 0, len(sorted))}
	for _, task := range sorted {
		s := heap.Pop(&h).(refSlotState)
		a := Assignment{Task: task, Slot: s.id, Start: s.free, End: s.free + task.Duration}
		sched.Assignments = append(sched.Assignments, a)
		if a.End > sched.Makespan {
			sched.Makespan = a.End
		}
		s.free = a.End
		heap.Push(&h, s)
	}
	return sched
}

// runPhasePlacedRef leaves out RunPhasePlaced's one preference term,
// "if len(task.Preferred) > 0 && !task.prefers(s/spn) { d += task.RemotePenalty }",
// which never fires on a task with no preferred nodes.
func runPhasePlacedRef(cfg Config, tasks []Task) Schedule {
	sorted := append([]Task(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Duration != sorted[j].Duration {
			return sorted[i].Duration > sorted[j].Duration
		}
		return sorted[i].Name < sorted[j].Name
	})

	slots := cfg.Slots()
	free := make([]time.Duration, slots)
	sched := Schedule{Assignments: make([]Assignment, 0, len(sorted))}
	for _, task := range sorted {
		best := -1
		var bestEnd time.Duration
		for s := 0; s < slots; s++ {
			d := task.Duration
			end := free[s] + d
			if best == -1 || end < bestEnd {
				best, bestEnd = s, end
			}
		}
		sched.Assignments = append(sched.Assignments, Assignment{
			Task: task, Slot: best, Start: free[best], End: bestEnd,
		})
		free[best] = bestEnd
		if bestEnd > sched.Makespan {
			sched.Makespan = bestEnd
		}
	}
	return sched
}

// TestRunPhaseMatchesReferences draws seeded phases — random small
// clusters (the zero Config included) and the paper's 40×8, durations from
// a few distinct values so ties are common, names that repeat — and
// requires RunPhase to return both references' schedule: the same tasks in
// the same order on the same slots over the same intervals, and the same
// makespan.
func TestRunPhaseMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	refs := []struct {
		name string
		run  func(Config, []Task) Schedule
	}{{"heap", runPhaseRef}, {"placed", runPhasePlacedRef}}
	for inst := 0; inst < 2000; inst++ {
		cfg := PaperCluster
		if inst%4 != 0 {
			cfg = Config{Nodes: rng.Intn(6), SlotsPerNode: rng.Intn(5)}
		}
		distinct := []int{1, 2, 3, 5, 8, 1000}[rng.Intn(6)]
		ts := make([]Task, rng.Intn(300))
		for i := range ts {
			ts[i] = Task{
				Name:     fmt.Sprintf("t%03d", rng.Intn(len(ts)+1)),
				Duration: time.Duration(rng.Intn(distinct)) * time.Millisecond,
			}
		}
		got := RunPhase(cfg, ts)
		for _, ref := range refs {
			want := ref.run(cfg, ts)
			if got.Makespan != want.Makespan || len(got.Assignments) != len(want.Assignments) {
				t.Fatalf("instance %d (%+v, %d tasks): makespan %v over %d assignments, %s reference %v over %d",
					inst, cfg, len(ts), got.Makespan, len(got.Assignments), ref.name, want.Makespan, len(want.Assignments))
			}
			for i, g := range got.Assignments {
				w := want.Assignments[i]
				if g.Task.Name != w.Task.Name || g.Task.Duration != w.Task.Duration ||
					g.Slot != w.Slot || g.Start != w.Start || g.End != w.End {
					t.Fatalf("instance %d (%+v, %d tasks): assignment %d is %s %v on slot %d [%v, %v), %s reference has %s %v on slot %d [%v, %v)",
						inst, cfg, len(ts), i, g.Task.Name, g.Task.Duration, g.Slot, g.Start, g.End,
						ref.name, w.Task.Name, w.Task.Duration, w.Slot, w.Start, w.End)
				}
			}
		}
	}
}
