package router

import "time"

// SetClock overrides a Config's clock, for the tests in package router_test.
func SetClock(cfg *Config, now func() time.Time) { cfg.now = now }
