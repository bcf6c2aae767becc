//go:build !race

package cluster

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
