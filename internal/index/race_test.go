//go:build race

package index

// raceEnabled reports a -race build, where allocation counts are not the
// program's.
const raceEnabled = true
