package core

import "repro/internal/metagraph"

// Seeds returns the indices of the metapaths in ms — the seed set K0 of
// Alg. 1 (easy to identify, fast to match).
func Seeds(ms []*metagraph.Metagraph) []int {
	var out []int
	for i, m := range ms {
		if m.IsPath() {
			out = append(out, i)
		}
	}
	return out
}
