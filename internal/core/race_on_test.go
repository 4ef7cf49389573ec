//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of its
// puts on purpose, so allocation counts are not the product's.
const raceEnabled = true
