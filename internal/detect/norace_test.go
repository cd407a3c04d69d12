//go:build !race

package detect

// raceEnabled reports a -race build, where sync.Pool drops entries at
// random and allocation counts are not the program's.
const raceEnabled = false
