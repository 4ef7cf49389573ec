//go:build race

package index

// raceEnabled: under the race detector sync.Pool drops a share of its
// puts on purpose, so allocation counts are not the product's.
const raceEnabled = true
