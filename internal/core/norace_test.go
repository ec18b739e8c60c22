//go:build !race

package core

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of its puts.
const raceEnabled = false
