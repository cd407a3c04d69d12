// Package par provides the bounded-fanout tiling primitive shared by the
// parallel detection kernels and the batch scoring paths. The detection
// kernels tile inside a reduce task too: a task whose peers got no work
// runs on their cores (mapreduce.TaskContext.Cores), so a plan with fewer
// partitions than cores still keeps every core busy.
//
// The model is deliberately minimal: split [0, n) into at most `workers`
// contiguous tiles and run one function per tile on its own goroutine,
// blocking until every tile finishes. Contiguous tiles are what keep the
// parallel kernels bit-identical to their sequential counterparts — each
// tile preserves the sequential visit order within itself, and callers
// concatenate per-tile results in tile order, which reproduces the
// sequential output exactly (see internal/detect's DetectSetParallel).
//
// Tiles are sized up front rather than work-stolen: the detection kernels
// do uniform per-element work dominated by memory bandwidth, where static
// contiguous partitioning beats a shared queue (no synchronization in the
// inner loop, and each worker streams one contiguous region of the
// columnar arrays).
package par

import "runtime"

// minTile is the smallest tile worth a goroutine: below this the spawn and
// join overhead dwarfs the saved work, so Do degrades toward fewer (or one)
// tiles on small inputs.
const minTile = 64

// Workers resolves a requested worker count: values < 1 mean "use
// GOMAXPROCS", anything else is taken as given.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Tiles returns the number of contiguous tiles Do would use for n elements
// and the given worker bound.
func Tiles(n, workers int) int {
	workers = Workers(workers)
	if workers > n/minTile {
		workers = n / minTile
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Do partitions [0, n) into Tiles(n, workers) contiguous half-open ranges
// and calls fn(tile, lo, hi) once per range, each on its own goroutine
// (tile 0 runs on the calling goroutine), returning after all complete.
// Tile indices are dense and ordered: tile t covers a range strictly below
// tile t+1's. With one tile — workers <= 1, or n too small to split — fn
// runs inline with no goroutine at all, so sequential callers pay nothing.
//
// fn must not panic; a panic on a spawned goroutine crashes the process
// (matching the behavior of the detection kernels it runs).
func Do(n, workers int, fn func(tile, lo, hi int)) {
	tiles := Tiles(n, workers)
	if tiles == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	// Split as evenly as possible: the first n%tiles tiles get one extra.
	base := n / tiles
	extra := n % tiles
	bound := func(t int) int {
		lo := t * base
		if t < extra {
			lo += t
		} else {
			lo += extra
		}
		return lo
	}
	done := make(chan struct{}, tiles-1)
	for t := 1; t < tiles; t++ {
		go func(t int) {
			fn(t, bound(t), bound(t+1))
			done <- struct{}{}
		}(t)
	}
	fn(0, bound(0), bound(1))
	for t := 1; t < tiles; t++ {
		<-done
	}
}
