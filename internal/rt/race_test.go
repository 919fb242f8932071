//go:build race

package rt

// raceEnabled reports whether the tests run under the race detector,
// which slows the reference traversal about tenfold.
const raceEnabled = true
