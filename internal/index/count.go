package index

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Counting instances. Eq. 1–2 count, per node and per node pair, the
// instances of one metagraph in which they sit on symmetric positions.
// match.InstanceSets hands the counter the instances in sets: a placement A
// of every position outside P and a candidate list F, every |P|-subset of
// which completes A (a plain instance is the set with P and F empty). The
// positions of P are pairwise symmetric, and a position outside P symmetric
// to one of them is symmetric to all, so with ℓ = |F| and m = |P| a set adds
//   - C(ℓ, m) to every key outside P: a node on a symmetric position, a pair
//     on a symmetric pair;
//   - C(ℓ−1, m−1) to each node u of F and each pair (A[w], u) with w outside
//     P symmetric to P: the subsets holding u;
//   - C(ℓ−2, m−2) to each pair of F: the subsets holding both.
// Every weight is 1 when ℓ = m, so a plain instance takes the same code.
// Node counts go straight into a dense per-node counter: the first count of
// a node lists it as touched, and the touched nodes, sorted, are the rows
// of the node table, after which their counts are cleared again. Pairs are
// too many for a dense counter, so the counter writes one key per pair and
// weight-1 gain into a flat slice, and one key with its weight per larger
// gain into another, sorts both, and run-length counts them together: a
// key's count is the length of its plain run plus its weights. Either way
// the rows come out in key order, the order a table stores its rows in, so
// no row is ever looked up or re-sorted. DESIGN.md "Counting instances" has
// the numbers.

// counter is the scratch one goroutine counts metagraphs with. Its slices
// grow to the largest metagraph it has counted (counts to the largest node
// id) and are reused after that, so a worker that matches many metagraphs
// stops allocating scratch after its first.
type counter struct {
	pairs   []uint64       // one packed pair key per gain of 1
	weighed []weighted     // one packed pair key per larger gain, with the gain
	counts  []uint64       // per node id, its instances; zero but while counting
	touched []graph.NodeID // the node ids counts holds a non-zero count for
	buf     []uint64       // radixSort's second buffer
	wbuf    []weighted     // radixSortWeighted's second buffer
	sorted  int64          // pair keys sorted so far, plain and weighted
}

// weighted is a packed pair key that gains n instances at once.
type weighted struct{ k, n uint64 }

// part builds the single-metagraph part index of m.
func (c *counter) part(m *metagraph.Metagraph, matcher match.Matcher) *Index {
	mx, mxy := c.match(m, matcher, 0)
	return fromRows(1, mx, &mxy)
}

// SortedPairKeys returns the number of pair keys counting ms with matcher
// sorts, plain and weighted: the counter's work beyond the enumeration.
func SortedPairKeys(ms []*metagraph.Metagraph, matcher match.Matcher) int64 {
	c := &counter{}
	for _, m := range ms {
		c.match(m, matcher, 0)
	}
	return c.sorted
}

// match enumerates the instance sets of m through matcher and returns the
// rows it contributes as metagraph number mi: per node, the instances in
// which it sits on a position of a symmetric pair (Eq. 2); per pair, the
// instances in which it sits on a symmetric pair. An asymmetric metagraph
// contributes nothing (ContainsSym can never hold) and is not matched.
func (c *counter) match(m *metagraph.Metagraph, matcher match.Matcher, mi int32) (csr[graph.NodeID], csr[PairKey]) {
	return c.count(m, mi, func(add match.SetVisitor) { match.InstanceSets(matcher, m, add) })
}

// count is match over the instance sets enumerate hands its visitor.
func (c *counter) count(m *metagraph.Metagraph, mi int32, enumerate func(match.SetVisitor)) (csr[graph.NodeID], csr[PairKey]) {
	pairs := m.SymmetricPairs()
	if len(pairs) == 0 {
		return csr[graph.NodeID]{}, csr[PairKey]{}
	}
	var positions []int
	for p := range m.N() {
		if slices.ContainsFunc(pairs, func(e metagraph.Edge) bool { return e.U == p || e.V == p }) {
			positions = append(positions, p)
		}
	}
	c.pairs, c.weighed, c.touched = c.pairs[:0], c.weighed[:0], c.touched[:0]
	enumerate(func(s match.Set) bool {
		c.add(s, pairs, positions, mi)
		return true
	})
	return c.rows(mi)
}

// add counts the instances of one set.
func (c *counter) add(s match.Set, pairs []metagraph.Edge, positions []int, mi int32) {
	a, free, in := s.A, s.F, uint32(0)
	for _, p := range s.P {
		in |= 1 << p
	}
	var all uint64 // C(ℓ, m), computed for the first node outside P
	for _, p := range positions {
		if in>>p&1 == 0 {
			if all == 0 {
				all = gain(len(free), len(s.P), mi, a[p])
			}
			c.node(a[p], all)
		}
	}
	var across uint32 // the positions outside P symmetric to P
	within := false
	c.room(len(pairs))
	for _, q := range pairs {
		switch in>>q.U&1 + in>>q.V&1 {
		case 0: // both nodes are positions outside P, so all is set
			c.pair(uint64(MakePairKey(a[q.U], a[q.V])), all)
		case 1:
			across |= (1<<q.U | 1<<q.V) &^ in
		case 2:
			within = true
		}
	}
	if len(free) == 0 {
		return
	}
	one := gain(len(free)-1, len(s.P)-1, mi, free[0])
	for _, u := range free {
		c.node(u, one)
	}
	for ; across != 0; across &= across - 1 {
		x := a[bits.TrailingZeros32(across)]
		c.room(len(free))
		for _, u := range free {
			c.pair(uint64(MakePairKey(x, u)), one)
		}
	}
	if within {
		two := gain(len(free)-2, len(s.P)-2, mi, MakePairKey(free[0], free[1]))
		c.room(len(free) * (len(free) - 1) / 2)
		for i, u := range free {
			for _, v := range free[i+1:] {
				c.pair(uint64(MakePairKey(u, v)), two)
			}
		}
	}
}

// node adds n instances to node v's count.
func (c *counter) node(v graph.NodeID, n uint64) {
	if int(v) >= len(c.counts) {
		c.counts = append(c.counts, make([]uint64, max(int(v)+1-len(c.counts), len(c.counts)))...)
	}
	if c.counts[v] == 0 {
		c.touched = append(c.touched, v)
	}
	c.counts[v] += n
}

// pair writes the key k of a pair that gains n instances.
func (c *counter) pair(k, n uint64) {
	if n == 1 {
		c.pairs = append(c.pairs, k)
	} else {
		c.weighed = append(c.weighed, weighted{k, n})
	}
}

// room makes room for n more keys of either kind, doubling a slice's
// capacity when it runs out: append grows a large slice by a quarter at a
// time, which allocates about five times the final scratch over one
// metagraph, doubling about twice.
func (c *counter) room(n int) {
	c.pairs, c.weighed = grow(c.pairs, n), grow(c.weighed, n)
}

// rows turns what add counted into the tables of metagraph mi and clears
// the node counts for the next metagraph.
func (c *counter) rows(mi int32) (csr[graph.NodeID], csr[PairKey]) {
	touched := c.touched
	slices.Sort(touched)
	c.sorted += int64(len(c.pairs) + len(c.weighed))
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
		mx.appendRun(v, mi, c.counts[v])
		c.counts[v] = 0
	}
	pack := func(k uint64) uint64 { return k>>32<<w | k&math.MaxUint32 }
	for i, k := range c.pairs {
		c.pairs[i] = pack(k)
	}
	for i := range c.weighed {
		c.weighed[i].k = pack(c.weighed[i].k)
	}
	low := uint64(1)<<w - 1
	mxy := runs(c.sort(c.pairs, 2*w), c.sortWeighted(c.weighed, 2*w), mi, func(k uint64) PairKey { return PairKey(k>>w<<32 | k&low) })
	return mx, mxy
}

// gain returns C(n, k), what one set adds to the count of metagraph mi at
// key, refusing as count32 does one an Entry cannot hold: the key's count
// could only be larger. A binomial past uint64 is refused the same way,
// never wrapped.
func gain[K any](n, k int, mi int32, key K) uint64 {
	c, ok := match.Binomial(n, k)
	if !ok {
		panic(fmt.Sprintf("index: metagraph %d, key %v: C(%d, %d) instances overflow the uint32 count", mi, key, n, k))
	}
	return uint64(count32(c, mi, key))
}

// grow makes room for n more elements, doubling the capacity when it runs
// out.
func grow[T any](keys []T, n int) []T {
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

// sortWeighted is sort for weighted keys, with the counter's other buffer.
func (c *counter) sortWeighted(keys []weighted, width int) []weighted {
	if cap(c.wbuf) < len(keys) {
		c.wbuf = make([]weighted, len(keys))
	}
	return radixSortWeighted(keys, c.wbuf[:len(keys)], width)
}

// runs counts sorted packed pair keys into the rows of metagraph mi: one
// one-coordinate row per distinct key of either slice, decoded by key,
// whose count is the key's plain run plus its weights. The table's capacity
// counts a key in both slices twice.
func runs(plain []uint64, weighed []weighted, mi int32, key func(uint64) PairKey) csr[PairKey] {
	n := distinct(len(plain), func(i int) bool { return plain[i] != plain[i-1] }) +
		distinct(len(weighed), func(i int) bool { return weighed[i].k != weighed[i-1].k })
	if n == 0 {
		return csr[PairKey]{}
	}
	c := csr[PairKey]{
		keys: make([]PairKey, 0, n),
		off:  make([]int32, 1, n+1),
		ent:  make([]Entry, 0, n),
	}
	i, j := 0, 0
	for i < len(plain) || j < len(weighed) {
		k := uint64(math.MaxUint64)
		if i < len(plain) {
			k = plain[i]
		}
		if j < len(weighed) {
			k = min(k, weighed[j].k)
		}
		start, sum := i, uint64(0)
		for i < len(plain) && plain[i] == k {
			i++
		}
		for ; j < len(weighed) && weighed[j].k == k; j++ {
			sum += weighed[j].n
		}
		c.appendRun(key(k), mi, uint64(i-start)+sum)
	}
	return c
}

// appendRun appends the row of key k, n instances of metagraph mi,
// refusing a count an Entry cannot hold.
func (c *csr[K]) appendRun(k K, mi int32, n uint64) {
	c.appendRow(k, []Entry{{mi, count32(n, mi, k)}})
}

// distinct returns the number of runs in a sorted slice of length n, where
// differs(i) reports whether element i differs from element i-1.
func distinct(n int, differs func(int) bool) int {
	if n == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < n; i++ {
		if differs(i) {
			runs++
		}
	}
	return runs
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

// radixSortWeighted is radixSort for weighted keys, by key. It is a copy
// rather than one generic sort taking a key function: that function,
// called per key and pass, made the plain sort of a million 28-bit keys
// ≈ 15–20 % slower.
func radixSortWeighted(keys, buf []weighted, width int) []weighted {
	if len(keys) < smallSort {
		slices.SortFunc(keys, func(a, b weighted) int { return cmp.Compare(a.k, b.k) })
		return keys
	}
	const mask = 1<<radixBits - 1
	src, dst := keys, buf
	for shift := 0; shift < width; shift += radixBits {
		var hist [1 << radixBits]int
		for _, e := range src {
			hist[e.k>>shift&mask]++
		}
		sum := 0
		for d, n := range hist {
			hist[d] = sum
			sum += n
		}
		for _, e := range src {
			d := e.k >> shift & mask
			dst[hist[d]] = e
			hist[d]++
		}
		src, dst = dst, src
	}
	return src
}
