package binpack

// The simulated cluster's phase scheduler is LPT: core's simulateJob
// feeds it one item per task, the item's ID the task's and its weight the
// task's modeled duration in nanoseconds, on core.Slots slots, and a
// phase takes the heaviest slot's load as its makespan. The TestRunPhase
// tests hold LPT to what the cluster's own scheduler promised on task
// durations.

import (
	"math/rand"
	"testing"
	"time"
)

// runPhase schedules one phase's tasks on the given number of slots the
// way simulateJob does, and returns the assignment and its makespan.
func runPhase(slots int, durations ...time.Duration) (*Assignment, time.Duration) {
	items := make([]Item, len(durations))
	for i, d := range durations {
		items[i] = Item{ID: i, Weight: float64(d)}
	}
	a := LPT(items, slots)
	return a, time.Duration(a.MaxLoad())
}

func TestRunPhaseSingleSlotSumsDurations(t *testing.T) {
	if _, makespan := runPhase(1, 3*time.Second, 1*time.Second, 2*time.Second); makespan != 6*time.Second {
		t.Errorf("Makespan = %v, want 6s", makespan)
	}
}

func TestRunPhaseParallelism(t *testing.T) {
	if _, makespan := runPhase(3, 3*time.Second, 3*time.Second, 3*time.Second); makespan != 3*time.Second {
		t.Errorf("Makespan = %v, want 3s (all parallel)", makespan)
	}
}

func TestRunPhaseLPTBalancing(t *testing.T) {
	// LPT on 2 slots with tasks 5,4,3,3,3: 5→s0, 4→s1, 3→s1 (7),
	// 3→s0 (8), 3→s1 (10). The total is 18, so 9 is the lower bound.
	_, makespan := runPhase(2, 5*time.Second, 4*time.Second, 3*time.Second, 3*time.Second, 3*time.Second)
	if makespan != 9*time.Second && makespan != 10*time.Second {
		t.Errorf("Makespan = %v, want 9s or 10s", makespan)
	}
	// And it must never beat the theoretical lower bound.
	if makespan < 9*time.Second {
		t.Errorf("Makespan %v below lower bound", makespan)
	}
}

func TestRunPhaseDominatedByLongestTask(t *testing.T) {
	if _, makespan := runPhase(10, 100*time.Second, time.Second, time.Second); makespan != 100*time.Second {
		t.Errorf("Makespan = %v, want 100s (straggler dominates)", makespan)
	}
}

func TestRunPhaseEmpty(t *testing.T) {
	a, makespan := runPhase(4)
	if makespan != 0 || len(a.ItemBin) != 0 {
		t.Errorf("empty phase: makespan %v, %d tasks placed", makespan, len(a.ItemBin))
	}
	if a.Imbalance() != 0 {
		t.Errorf("empty imbalance = %g", a.Imbalance())
	}
}

func TestRunPhaseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
	}
	const slots = 40 * 8
	a, ma := runPhase(slots, ds...)
	b, mb := runPhase(slots, ds...)
	if ma != mb {
		t.Errorf("nondeterministic makespan %v vs %v", ma, mb)
	}
	for s := range a.Bins {
		if len(a.Bins[s]) != len(b.Bins[s]) {
			t.Fatalf("slot %d holds %d tasks, then %d", s, len(a.Bins[s]), len(b.Bins[s]))
		}
		for i := range a.Bins[s] {
			if a.Bins[s][i] != b.Bins[s][i] {
				t.Fatalf("slot %d position %d: task %v, then %v", s, i, a.Bins[s][i], b.Bins[s][i])
			}
		}
	}
}

// TestRunPhaseNoSlotOverlap runs each slot's tasks back to back in the
// order LPT placed them: no two tasks on a slot may overlap, every task
// runs exactly once, and every slot ends by the makespan.
func TestRunPhaseNoSlotOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := make([]time.Duration, 200)
	for i := range ds {
		ds[i] = time.Duration(1+rng.Intn(500)) * time.Millisecond
	}
	a, makespan := runPhase(3*2, ds...)
	ran := make([]int, len(ds))
	for slot, tasks := range a.Bins {
		var end time.Duration
		for _, it := range tasks {
			start := end
			end = start + ds[it.ID]
			if time.Duration(it.Weight) != ds[it.ID] {
				t.Fatalf("slot %d: task %d weighs %v, its duration is %v", slot, it.ID, time.Duration(it.Weight), ds[it.ID])
			}
			if a.ItemBin[it.ID] != slot {
				t.Fatalf("task %d runs on slot %d but is recorded on slot %d", it.ID, slot, a.ItemBin[it.ID])
			}
			ran[it.ID]++
		}
		if end != time.Duration(a.Loads[slot]) || end > makespan {
			t.Fatalf("slot %d ends at %v, its load is %v and the makespan %v", slot, end, time.Duration(a.Loads[slot]), makespan)
		}
	}
	for id, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", id, n)
		}
	}
}

func TestRunPhaseMakespanBounds(t *testing.T) {
	// Property: makespan >= max duration, makespan >= total/slots, and
	// makespan <= total (single-slot worst case bound).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		ds := make([]time.Duration, n)
		var total, longest time.Duration
		for i := range ds {
			ds[i] = time.Duration(1+rng.Intn(10000)) * time.Microsecond
			total += ds[i]
			longest = max(longest, ds[i])
		}
		slots := (1 + rng.Intn(5)) * (1 + rng.Intn(4))
		_, makespan := runPhase(slots, ds...)
		lower := total / time.Duration(slots)
		if makespan < longest || makespan < lower {
			t.Fatalf("trial %d: makespan %v below bounds (max %v, mean %v)", trial, makespan, longest, lower)
		}
		if makespan > total {
			t.Fatalf("trial %d: makespan %v exceeds serial time %v", trial, makespan, total)
		}
	}
}
