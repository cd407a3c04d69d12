package router

import "time"

// SetClock overrides a Config's clock, for the tests in package router_test.
func SetClock(cfg *Config, now func() time.Time) { cfg.now = now }

// SetDownAfter sets how many consecutive failed calls and probes take a
// shard down.
func SetDownAfter(cfg *Config, n int) { cfg.downAfter = n }

// OwnerOf returns the owning shard of the cell containing the given point
// coordinates.
func (t *Topology) OwnerOf(coords []float64) string {
	return t.Owner(t.CellOf(coords))
}

// Topology returns the current ownership view (a deep copy).
func (rt *Router) Topology() *Topology { return rt.topology().Clone() }
