package binpack

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// listSchedule is the simulated cluster's list scheduler as it stood
// before LPT replaced it, kept as LPT's reference on scheduling inputs:
// tasks longest first (ties by ID) each go to the slot that frees
// earliest, scanning slots in index order. It returns each task's slot,
// the makespan and max/mean load over the slots that ran a task, all in
// integer nanoseconds as the scheduler kept them.
func listSchedule(durations []time.Duration, ids []int, slots int) (slotOf map[int]int, makespan time.Duration, imbalance float64) {
	order := make([]int, len(durations))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if durations[i] != durations[j] {
			return durations[i] > durations[j]
		}
		return ids[i] < ids[j]
	})
	free := make([]time.Duration, slots)
	slotOf = make(map[int]int, len(durations))
	load := map[int]time.Duration{}
	for _, i := range order {
		best := 0
		for s := range free {
			if free[s] < free[best] {
				best = s
			}
		}
		slotOf[ids[i]] = best
		free[best] += durations[i]
		load[best] += durations[i]
		makespan = max(makespan, free[best])
	}
	var sum, most time.Duration
	for _, l := range load {
		sum += l
		most = max(most, l)
	}
	if mean := float64(sum) / float64(len(load)); len(load) > 0 && mean != 0 {
		imbalance = float64(most) / mean
	}
	return slotOf, makespan, imbalance
}

// TestLPTMatchesListScheduler holds LPT, fed one item per task with the
// task's duration in nanoseconds as its weight, to the list scheduler on
// seeded phases: 0-400 tasks in shuffled ID order on 1-400 slots (the
// paper's 320 among them), durations drawn from a few distinct values so
// ties and zero-length tasks are common. Every task must land on the same
// slot, MaxLoad must be the makespan and Imbalance the busy-slot ratio bit
// for bit.
func TestLPTMatchesListScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for inst := 0; inst < 2000; inst++ {
		slots := 320
		if inst%4 != 0 {
			slots = 1 + rng.Intn(400)
		}
		n := rng.Intn(401)
		distinct := []int{1, 2, 3, 5, 8, 1000}[rng.Intn(6)]
		durations := make([]time.Duration, n)
		ids := rng.Perm(n)
		items := make([]Item, n)
		for i := range durations {
			durations[i] = time.Duration(rng.Intn(distinct)) * time.Duration(1+rng.Intn(3)) * time.Millisecond
			items[i] = Item{ID: ids[i], Weight: float64(durations[i])}
		}
		slotOf, makespan, imbalance := listSchedule(durations, ids, slots)
		a := LPT(items, slots)
		for id, s := range slotOf {
			if a.ItemBin[id] != s {
				t.Fatalf("instance %d (%d tasks, %d slots): task %d on bin %d, list scheduler's slot %d", inst, n, slots, id, a.ItemBin[id], s)
			}
		}
		if time.Duration(a.MaxLoad()) != makespan {
			t.Fatalf("instance %d (%d tasks, %d slots): MaxLoad %v, makespan %v", inst, n, slots, time.Duration(a.MaxLoad()), makespan)
		}
		if math.Float64bits(a.Imbalance()) != math.Float64bits(imbalance) {
			t.Fatalf("instance %d (%d tasks, %d slots): Imbalance %v, busy-slot ratio %v", inst, n, slots, a.Imbalance(), imbalance)
		}
	}
}

// TestImbalanceCountsBusyBins checks Imbalance's rule: the mean is over
// the bins that hold an item, so idle bins do not count.
func TestImbalanceCountsBusyBins(t *testing.T) {
	for _, tc := range []struct {
		weights []float64
		bins    int
		want    float64
	}{
		{[]float64{2, 2}, 2, 1},
		{[]float64{9, 1}, 2, 1.8},
		{[]float64{3}, 8, 1},        // one busy bin among eight
		{[]float64{6, 2}, 320, 1.5}, // 318 idle bins
		{[]float64{0, 0, 0}, 4, 0},  // zero total weight
		{nil, 4, 0},
	} {
		if got := LPT(items(tc.weights...), tc.bins).Imbalance(); got != tc.want {
			t.Errorf("LPT(%v, %d).Imbalance() = %v, want %v", tc.weights, tc.bins, got, tc.want)
		}
	}
}
