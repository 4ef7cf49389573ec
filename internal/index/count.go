package index

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Counting instances. Eq. 1–2 count, per node and per node pair, the
// instances of one metagraph in which they sit on symmetric positions.
// Node counts go straight into a dense per-node counter: the first count of
// a node lists it as touched, and the touched nodes, sorted, are the rows
// of the node table, after which their counts are cleared again. Pairs are
// too many for a dense counter, so the counter writes one key per
// (instance, symmetric pair) into a flat slice, sorts it, and run-length
// counts it: a key's count is the length of its run. Either way the rows
// come out in key order, the order a table stores its rows in, so no row
// is ever looked up or re-sorted. DESIGN.md "Counting instances" has the
// numbers.

// counter is the scratch one goroutine counts metagraphs with. Its slices
// grow to the largest metagraph it has counted (counts to the largest node
// id) and are reused after that, so a worker that matches many metagraphs
// stops allocating scratch after its first.
type counter struct {
	pairs   []uint64       // one packed pair key per (instance, symmetric pair)
	counts  []uint64       // per node id, its instances; zero but while counting
	touched []graph.NodeID // the node ids counts holds a non-zero count for
	buf     []uint64       // radixSort's second buffer
}

// part builds the single-metagraph part index of m.
func (c *counter) part(m *metagraph.Metagraph, matcher match.Matcher) *Index {
	b := newBuilder(1, c)
	b.AddMetagraph(0, m, matcher)
	return b.Build()
}

// count enumerates the instances of m through matcher and returns the rows
// metagraph mi contributes: per node, the instances in which it sits on one
// of positions; per pair, the instances in which it sits on one of pairs.
func (c *counter) count(m *metagraph.Metagraph, matcher match.Matcher, pairs []metagraph.Edge, positions []int, mi int32) (csr[graph.NodeID], csr[PairKey]) {
	pk, counts, touched := c.pairs[:0], c.counts, c.touched[:0]
	match.Instances(matcher, m, func(a []graph.NodeID) bool {
		pk = grow(pk, len(pairs))
		for _, p := range pairs {
			pk = append(pk, uint64(MakePairKey(a[p.U], a[p.V])))
		}
		for _, p := range positions {
			v := a[p]
			if int(v) >= len(counts) {
				counts = append(counts, make([]uint64, max(int(v)+1-len(counts), len(counts)))...)
			}
			if counts[v] == 0 {
				touched = append(touched, v)
			}
			counts[v]++
		}
		return true
	})
	slices.Sort(touched)
	c.pairs, c.counts, c.touched = pk, counts, touched

	var mx csr[graph.NodeID]
	var w int
	if len(touched) > 0 {
		mx = csr[graph.NodeID]{
			keys: make([]graph.NodeID, 0, len(touched)),
			off:  make([]int32, 1, len(touched)+1),
			ent:  make([]Entry, 0, len(touched)),
		}
		// Every node of a pair sits on a position, so w bits hold any node
		// id, and a pair packs into 2w bits with its order kept.
		w = bits.Len32(uint32(touched[len(touched)-1]))
	}
	for _, v := range touched {
		mx.appendRun(v, mi, counts[v])
		counts[v] = 0
	}
	for i, k := range pk {
		pk[i] = k>>32<<w | k&math.MaxUint32
	}
	low := uint64(1)<<w - 1
	mxy := runs(c.sort(pk, 2*w), mi, func(k uint64) PairKey { return PairKey(k>>w<<32 | k&low) })
	return mx, mxy
}

// grow makes room for n more keys, doubling the capacity when it runs out:
// append grows a large slice by a quarter at a time, which allocates about
// five times the final scratch over one metagraph, doubling about twice.
func grow(keys []uint64, n int) []uint64 {
	if len(keys)+n <= cap(keys) {
		return keys
	}
	return slices.Grow(keys, max(n, len(keys)))
}

// sort sorts keys below 2^width with the counter's buffer and returns the
// sorted slice, which may be that buffer: read it before the next sort.
func (c *counter) sort(keys []uint64, width int) []uint64 {
	if cap(c.buf) < len(keys) {
		c.buf = make([]uint64, len(keys))
	}
	return radixSort(keys, c.buf[:len(keys)], width)
}

// runs run-length counts sorted packed pair keys into the rows of
// metagraph mi: one one-coordinate row per distinct key, decoded by key.
func runs(sorted []uint64, mi int32, key func(uint64) PairKey) csr[PairKey] {
	if len(sorted) == 0 {
		return csr[PairKey]{}
	}
	n := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			n++
		}
	}
	c := csr[PairKey]{
		keys: make([]PairKey, 0, n),
		off:  make([]int32, 1, n+1),
		ent:  make([]Entry, 0, n),
	}
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || sorted[i] != sorted[start] {
			c.appendRun(key(sorted[start]), mi, uint64(i-start))
			start = i
		}
	}
	return c
}

// appendRun appends the row of key k, n instances of metagraph mi,
// refusing a count an Entry cannot hold.
func (c *csr[K]) appendRun(k K, mi int32, n uint64) {
	c.keys = append(c.keys, k)
	c.ent = append(c.ent, Entry{mi, count32(n, mi, k)})
	c.off = append(c.off, int32(len(c.ent)))
}

// smallSort is the input size below which radixSort hands over to
// slices.Sort. A radix pass clears and sums a histogram whatever the input
// size; the few keys an update's re-match writes do not repay that. The two
// cross near 400 random 26-bit keys.
const smallSort = 384

// radixBits is radixSort's digit: a histogram of 2^11 ints stays in L1,
// and a constant mask lets the compiler drop its bounds checks.
const radixBits = 11

// radixSort sorts keys, all below 2^width, ascending. It is an LSD radix
// sort over the low width bits, radixBits at a time, with buf (as long as
// keys) as its second buffer. It returns the sorted slice: keys or buf,
// depending on how many passes ran.
func radixSort(keys, buf []uint64, width int) []uint64 {
	if len(keys) < smallSort {
		slices.Sort(keys)
		return keys
	}
	const mask = 1<<radixBits - 1
	src, dst := keys, buf
	for shift := 0; shift < width; shift += radixBits {
		var hist [1 << radixBits]int
		for _, k := range src {
			hist[k>>shift&mask]++
		}
		sum := 0
		for d, n := range hist {
			hist[d] = sum
			sum += n
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[hist[d]] = k
			hist[d]++
		}
		src, dst = dst, src
	}
	return src
}
