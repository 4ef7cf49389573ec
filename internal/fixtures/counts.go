package fixtures

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"testing"

	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/metagraph"
)

// SharedSchool builds users a and b who are friends and share one school,
// and a third user c who shares nothing with them (c's school is another).
// Trained on (q=a, x=b, y=c), an engine over it and SharedSchoolMetagraphs
// matches the user–user–school triangle, and every count of its index is
// 1: m_a, m_b and m_ab. A new school of a and b is one more triangle. The
// triangle is no two-edge metapath, so its counts travel in a snapshot's
// index section, where WithEveryCount sets them.
func SharedSchool() (g *graph.Graph, a, b, c graph.NodeID) {
	gb := graph.NewBuilder()
	for _, tn := range []string{"user", "school"} {
		gb.Types().Register(tn)
	}
	a, b = gb.AddNode("user", "A"), gb.AddNode("user", "B")
	c, school, other := gb.AddNode("user", "C"), gb.AddNode("school", "S"), gb.AddNode("school", "T")
	gb.AddEdge(a, b)
	gb.AddEdge(a, school)
	gb.AddEdge(b, school)
	gb.AddEdge(c, other)
	return gb.MustBuild(), a, b, c
}

// SharedSchoolMetagraphs is the metagraph set of an engine over
// SharedSchool's graph g: the user–user–school triangle alone.
func SharedSchoolMetagraphs(g *graph.Graph) []*metagraph.Metagraph {
	user, school := g.Types().ID("user"), g.Types().ID("school")
	return []*metagraph.Metagraph{metagraph.MustNew([]graph.TypeID{user, user, school}, []metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}})}
}

// The exp-Golomb orders of the index section's fields, as
// internal/index writes them (its io.go format comment). A drift fails
// every test that loads what WithEveryCount writes.
const (
	ordSize    = 0
	ordMetaGap = 1
	ordNode    = 1
	ordRunHead = 3
	ordRef     = 4
	ordBlocks  = 0
	ordBlock   = 1
	ordResHead = 2
	ordResGap  = 4
	ordResCnt  = 1
	ordDiv     = 1
	ordCntGap  = 1
	ordCnt     = 2
)

// WithEveryCount re-encodes an engine snapshot, whose stream starts with
// magic, with every pair count of its index section set to cnt, and every
// count the section writes for a node too, checksum valid: the on-disk
// form of an index whose instances number cnt wherever it has a pair row.
// A node count the section derives from its run's sum follows the pairs:
// SharedSchool's users have one partner each and a divisor of 1, so their
// counts are cnt as well. The runs keep their references. Of the
// snapshot's header it reads only classes[].kept, which sizes each class's
// weight section.
func WithEveryCount(tb testing.TB, snap []byte, magic string, cnt uint64) []byte {
	tb.Helper()
	fr, err := flat.NewReader(bytes.NewReader(snap), magic)
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	fw := flat.NewWriter(&out, magic)
	hdr := fr.Bytes()
	var h struct{ Classes []struct{ Kept []int } }
	if err := json.Unmarshal(hdr, &h); err != nil {
		tb.Fatal(err)
	}
	fw.Bytes(hdr)
	g, err := graph.Decode(fr)
	if err != nil {
		tb.Fatal(err)
	}
	graph.Encode(fw, g)
	eg := func(k uint) uint64 { v := fr.ExpGolomb(k); fw.ExpGolomb(v, k); return v }
	b := uint(bits.Len64(eg(ordSize))) // numMeta sizes each run head
	ones := uint64(0)
	if cnt == 1 {
		ones = 1
	}
	// The runs above each node: a copy takes its count from the run it
	// copies, which holds cnt too, so only the residuals carry counts.
	metas := map[uint64]bool{}
	nRuns, _ := eg(ordSize), eg(ordSize)
	for runs := uint64(0); runs < nRuns; {
		eg(ordNode)
		head := eg(ordRunHead) // runs<<b | first metagraph
		n, m := head>>b, head&(1<<b-1)
		metas[m] = true
		for j := uint64(1); j < n; j++ {
			m += eg(ordMetaGap)
			metas[m] = true
		}
		for j := uint64(0); j < n; j++ {
			if eg(ordRef) != 0 { // a reference, then its copy blocks
				for k := eg(ordBlocks); k > 0; k-- {
					eg(ordBlock)
				}
			}
			h := fr.ExpGolomb(ordResHead) // residuals<<1 | ones
			fw.ExpGolomb(h&^1|ones, ordResHead)
			for k := h >> 1; k > 0; k-- {
				eg(ordResGap)
			}
			for k := h >> 1; k > 0; k-- {
				if h&1 == 0 {
					fr.ExpGolomb(ordResCnt)
				}
				if ones == 0 {
					fw.ExpGolomb(cnt, ordResCnt)
				}
			}
		}
		runs += n
	}
	// A divisor per metagraph the runs hold, then the written counts of
	// those of divisor 0.
	written := 0
	for range metas {
		if eg(ordDiv) == 0 {
			written++
		}
	}
	for ; written > 0; written-- {
		for k := eg(ordSize); k > 0; k-- {
			eg(ordCntGap)
			fr.ExpGolomb(ordCnt)
			fw.ExpGolomb(cnt, ordCnt)
		}
	}
	fr.Align()
	fw.Align()
	for _, sc := range h.Classes { // log-likelihood and weights
		for i := 0; i <= len(sc.Kept); i++ {
			fw.Uint64(fr.Uint64())
		}
	}
	if err := fr.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}
