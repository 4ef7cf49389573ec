//go:build race

package engine

// raceEnabled: the race detector slows matching about tenfold, so the
// MaxNodes-5 shape skips itself under it.
const raceEnabled = true
