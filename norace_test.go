//go:build !race

package dod

// raceEnabled reports a -race build, where allocation counts are not the
// program's.
const raceEnabled = false
