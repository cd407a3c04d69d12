//go:build race

package router_test

// raceEnabled reports a -race build, where allocation counts are not the
// program's.
const raceEnabled = true
