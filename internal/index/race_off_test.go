//go:build !race

package index

const raceEnabled = false
