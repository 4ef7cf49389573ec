package main

import (
	"fmt"
	"math/rand"
)

// Every operation the generator issues is drawn from a stream that is a
// pure function of (-seed, workload, client): the same seed replays the
// same requests in the same per-client order, on any commit. The daemons
// never see the seed, only the requests.

type opKind uint8

const (
	opQuery opKind = iota
	opProximity
	opBatch
	opUpdate
	numOpKinds
)

var opKindNames = [numOpKinds]string{"query", "proximity", "batch", "update"}

func (k opKind) String() string { return opKindNames[k] }

const (
	queryK    = 10 // every ranked read asks for the top 10
	batchSize = 8
	// The read mix: 70 % single query, 20 % pair proximity, 10 % batch.
	// Proximity has no candidate scan, so it isolates per-request
	// overhead; a batch isolates fan-out and a large response.
	pctQuery     = 70
	pctProximity = 20
	zipfS        = 1.2
)

// op is one request. Users are indices into the dataset's user-<i> name
// space; an update names the node it adds and the attribute node it
// attaches to.
type op struct {
	kind   opKind
	x, y   int            // query: x; proximity: x, y
	batch  [batchSize]int // batch anchors
	name   string         // update: the user node added
	target string         // update: the existing node it links to
}

func (o op) String() string {
	switch o.kind {
	case opQuery:
		return fmt.Sprintf("query %d", o.x)
	case opProximity:
		return fmt.Sprintf("proximity %d %d", o.x, o.y)
	case opBatch:
		return fmt.Sprintf("batch %v", o.batch)
	default:
		return fmt.Sprintf("update %s %s", o.name, o.target)
	}
}

// subSeed derives an independent stream seed from the run seed and a
// list of small discriminators (workload salt, client index) with the
// splitmix64 finalizer, so neighbouring seeds share no prefix.
func subSeed(seed int64, parts ...int) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// readStream draws the 70/20/10 read mix over a user population, either
// uniformly (working set = every user: no cache can help) or Zipf(1.2)
// over a seeded permutation of the users (a hot head a cache can hold).
type readStream struct {
	rng   *rand.Rand
	users int
	zipf  *rand.Zipf // nil: uniform
	perm  []int      // Zipf rank -> user, so the hot set is not user-0..n
}

func newReadStream(seed int64, salt, client, users int, zipf bool) *readStream {
	s := &readStream{rng: rand.New(rand.NewSource(subSeed(seed, salt, client))), users: users}
	if zipf {
		// The permutation is shared by all clients of a run (no client
		// discriminator): they agree on which users are hot.
		s.perm = rand.New(rand.NewSource(subSeed(seed, salt, -1))).Perm(users)
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(users-1))
	}
	return s
}

func (s *readStream) next() op {
	var o op
	switch p := s.rng.Intn(100); {
	case p < pctQuery:
		o.kind = opQuery
	case p < pctQuery+pctProximity:
		o.kind = opProximity
	default:
		o.kind = opBatch
	}
	if s.zipf != nil {
		// One Zipf draw decides the whole request: a hot user is hot in
		// every op type, so all three share the head's repeat rate and
		// the edge cache sees the same hit ratio on each.
		r := int(s.zipf.Uint64())
		at := func(i int) int { return s.perm[(r+i)%s.users] }
		o.x, o.y = at(0), at(1)
		for i := range o.batch {
			o.batch[i] = at(i)
		}
		return o
	}
	switch o.kind {
	case opQuery:
		o.x = s.rng.Intn(s.users)
	case opProximity:
		o.x, o.y = s.rng.Intn(s.users), s.rng.Intn(s.users)
	case opBatch:
		for i := range o.batch {
			o.batch[i] = s.rng.Intn(s.users)
		}
	}
	return o
}

// updateStream draws live updates: update n adds user node
// bench-<seed>-<n> with one edge to a seeded existing college, so the
// new user gains every user of that college as a partner and their
// vectors change — an update whose effect a query can observe. Names and
// order are a pure function of the seed, so epoch n is deterministic.
type updateStream struct {
	rng      *rand.Rand
	seed     int64
	colleges int
	n        int
}

func newUpdateStream(seed int64, salt, colleges int) *updateStream {
	return &updateStream{rng: rand.New(rand.NewSource(subSeed(seed, salt, 1<<20))), seed: seed, colleges: colleges}
}

func (s *updateStream) next() op {
	o := op{
		kind:   opUpdate,
		name:   fmt.Sprintf("bench-%d-%d", s.seed, s.n),
		target: fmt.Sprintf("college-%d", s.rng.Intn(s.colleges)),
	}
	s.n++
	return o
}

func userName(i int) string { return fmt.Sprintf("user-%d", i) }
