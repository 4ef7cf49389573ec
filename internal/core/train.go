package core

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/index"
)

// Example is one pairwise training triplet (q, x, y) of Sect. III-B: node x
// should rank before node y with respect to query q.
type Example struct {
	Q, X, Y graph.NodeID
}

// TrainOptions configures gradient ascent. Defaults (via DefaultTrain)
// follow the paper's experimental setup (Sect. V-B).
type TrainOptions struct {
	Mu           float64 // sigmoid scale µ of Eq. 4
	LearningRate float64 // initial γ of Eq. 6
	DecayEvery   int     // reduce γ every this many iterations ...
	DecayFactor  float64 // ... by this multiplicative factor
	MaxIters     int     // hard iteration cap per restart
	Tol          float64 // stop when |ΔL| < Tol·|L| (paper: 0.001% → 1e-5)
	Restarts     int     // independent random initializations; best L wins
	Seed         int64   // RNG seed for the initializations
}

// DefaultTrain mirrors the paper: µ=5, γ=10 decayed by 5% every 100
// iterations, 5 restarts. The convergence tolerance is stricter than the
// paper's 0.001% because our L is the mean (not sum) log-likelihood:
// per-iteration changes are |Ω| times smaller, and a loose tolerance stops
// ascent on slow plateaus far from the optimum.
func DefaultTrain() TrainOptions {
	return TrainOptions{
		Mu:           5,
		LearningRate: 10,
		DecayEvery:   100,
		DecayFactor:  0.95,
		MaxIters:     2000,
		Tol:          1e-7,
		Restarts:     5,
		Seed:         1,
	}
}

// Model is a learned MGP proximity model: the characteristic weight vector
// w* over the metagraph set the index was built for.
type Model struct {
	W             []float64
	LogLikelihood float64
	Iterations    int // total iterations across restarts
}

// TrainKeys names every row Train reads of its index: m_q, m_x and m_y of
// each example, and m_qx and m_qy where the two nodes differ (π(q, q) is 1
// and reads nothing). An index holding only these rows, over the same
// metagraphs, trains to the same model bit for bit.
func TrainKeys(examples []Example) index.Keys {
	nodes := make([]graph.NodeID, 0, 3*len(examples))
	pairs := make([]index.PairKey, 0, 2*len(examples))
	for _, ex := range examples {
		nodes = append(nodes, ex.Q, ex.X, ex.Y)
		for _, o := range []graph.NodeID{ex.X, ex.Y} {
			if o != ex.Q {
				pairs = append(pairs, index.MakePairKey(ex.Q, o))
			}
		}
	}
	slices.Sort(nodes)
	slices.Sort(pairs)
	return index.Keys{Nodes: slices.Compact(nodes), Pairs: slices.Compact(pairs)}
}

// exampleRows are the rows of one example's triplet (q, x, y), read once
// before the ascent: m_q, m_x, m_y, m_qx and m_qy, and whether x or y is q.
type exampleRows struct {
	q, x, y, qx, qy index.SparseVec
	selfX, selfY    bool
}

// gather reads every example's rows out of ix.
func gather(ix *index.Index, examples []Example) []exampleRows {
	rows := make([]exampleRows, len(examples))
	for i, ex := range examples {
		rows[i] = exampleRows{
			q: ix.NodeVec(ex.Q), x: ix.NodeVec(ex.X), y: ix.NodeVec(ex.Y),
			qx: ix.PairVec(ex.Q, ex.X), qy: ix.PairVec(ex.Q, ex.Y),
			selfX: ex.Q == ex.X, selfY: ex.Q == ex.Y,
		}
	}
	return rows
}

// proximity is Proximity of q and another node o from their rows m_q,
// m_o and m_qo, same arithmetic, same bits.
func proximity(w []float64, self bool, mq, mo, mqo index.SparseVec) float64 {
	if self {
		return 1
	}
	den := mq.Dot(w) + mo.Dot(w)
	if den <= 0 {
		return 0
	}
	return 2 * mqo.Dot(w) / den
}

// Train learns w* = argmax_w L(w; Ω) by gradient ascent (Eq. 5–6) with
// multiple random restarts, then normalizes the weights into [0, 1]. It
// reads the rows TrainKeys names and no others, each once. Examples whose
// nodes never occur in the index contribute a constant to L and zero
// gradient; they are harmless.
func Train(ix *index.Index, examples []Example, opts TrainOptions) *Model {
	if opts.Mu == 0 {
		opts = DefaultTrain()
	}
	rows := gather(ix, examples)
	n := ix.NumMeta()
	rng := rand.New(rand.NewSource(opts.Seed))

	best := &Model{W: UniformWeights(n), LogLikelihood: math.Inf(-1)}
	restarts := opts.Restarts
	if restarts < 1 {
		restarts = 1
	}
	for r := 0; r < restarts; r++ {
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.1 + 0.9*rng.Float64()
		}
		ll, iters := ascend(rows, w, opts)
		if ll > best.LogLikelihood {
			best.W = w
			best.LogLikelihood = ll
		}
		best.Iterations += iters
	}
	NormalizeWeights(best.W)
	// Recompute L at the normalized weights (identical by scale-invariance,
	// but report the exact value the model carries).
	best.LogLikelihood = logLikelihood(rows, best.W, opts.Mu)
	return best
}

// ascend runs one gradient-ascent trajectory in place and returns the final
// log-likelihood and iteration count. A backtracking line search halves the
// step whenever it would decrease L: with the non-negativity clamp a fixed
// step can overshoot a ridge into an all-zero dead corner, and monotone
// ascent rules that out.
func ascend(rows []exampleRows, w []float64, opts TrainOptions) (float64, int) {
	gamma := opts.LearningRate
	prevLL := logLikelihood(rows, w, opts.Mu)
	grad := make([]float64, len(w))
	cand := make([]float64, len(w))
	it := 0
	for ; it < opts.MaxIters; it++ {
		gradient(rows, w, opts.Mu, grad)

		step := gamma
		ll := math.Inf(-1)
		for attempt := 0; attempt < 30; attempt++ {
			for i := range w {
				cand[i] = w[i] + step*grad[i]
				if cand[i] < 0 {
					cand[i] = 0 // non-negativity constraint of Def. 3
				}
			}
			ll = logLikelihood(rows, cand, opts.Mu)
			if ll >= prevLL {
				break
			}
			step /= 2
		}
		if ll < prevLL {
			break // no improving step along the gradient: converged
		}
		copy(w, cand)

		// Guard against drift to huge magnitudes: scaling is free by
		// Theorem 1 and keeps the arithmetic well conditioned.
		maxW := 0.0
		for _, v := range w {
			if v > maxW {
				maxW = v
			}
		}
		if maxW > 1e6 {
			for i := range w {
				w[i] /= maxW
			}
		}
		if opts.DecayEvery > 0 && (it+1)%opts.DecayEvery == 0 {
			gamma *= opts.DecayFactor
		}
		if math.Abs(ll-prevLL) < opts.Tol*math.Abs(prevLL) {
			prevLL = ll
			it++
			break
		}
		prevLL = ll
	}
	return prevLL, it
}

// LogLikelihood computes the mean log-likelihood L(w; Ω)/|Ω| with P per
// Eq. 4. The mean normalization matches gradient (the maximizer is the
// same; step sizes become |Ω|-independent).
func LogLikelihood(ix *index.Index, w []float64, examples []Example, mu float64) float64 {
	return logLikelihood(gather(ix, examples), w, mu)
}

// logLikelihood is LogLikelihood over gathered rows.
func logLikelihood(rows []exampleRows, w []float64, mu float64) float64 {
	var ll float64
	for i := range rows {
		r := &rows[i]
		d := proximity(w, r.selfX, r.q, r.x, r.qx) - proximity(w, r.selfY, r.q, r.y, r.qy)
		// log sigmoid(µd) computed stably.
		z := mu * d
		if z > 0 {
			ll += -math.Log1p(math.Exp(-z))
		} else {
			ll += z - math.Log1p(math.Exp(z))
		}
	}
	if len(rows) > 0 {
		ll /= float64(len(rows))
	}
	return ll
}

// gradient fills grad with ∇L(w)/|Ω| using the closed-form partial
// derivatives of Sect. III-B:
//
//	∂π(v,u)/∂w[i] = [2(m_v·w + m_u·w)·m_vu[i] − 2(m_vu·w)(m_v[i]+m_u[i])]
//	                / (m_v·w + m_u·w)²
//
// The mean (rather than the sum) keeps the effective step size of Eq. 6
// independent of |Ω|, so the paper's γ=10 behaves identically at 10 and at
// 1000 examples (scale-invariance of π makes the two parameterizations
// equivalent up to the learning-rate schedule).
func gradient(rows []exampleRows, w []float64, mu float64, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	for i := range rows {
		r := &rows[i]
		px := proximity(w, r.selfX, r.q, r.x, r.qx)
		py := proximity(w, r.selfY, r.q, r.y, r.qy)
		// µ(1 − P(q,x,y;w))
		p := sigmoid(mu * (px - py))
		c := mu * (1 - p)
		if c == 0 {
			continue
		}
		addPairGrad(w, r.selfX, r.q, r.x, r.qx, c, grad)
		addPairGrad(w, r.selfY, r.q, r.y, r.qy, -c, grad)
	}
	if n := float64(len(rows)); n > 0 {
		for i := range grad {
			grad[i] /= n
		}
	}
}

// addPairGrad accumulates c · ∂π(v,u)/∂w into grad from the rows m_v, m_u
// and m_vu, exploiting sparsity: only coordinates present in m_vu, m_v or
// m_u are touched. self says v == u.
func addPairGrad(w []float64, self bool, mv, mu, mvu index.SparseVec, c float64, grad []float64) {
	if self {
		return // π(x,x) is constant 1
	}
	den := mv.Dot(w) + mu.Dot(w)
	if den <= 0 {
		return
	}
	num := mvu.Dot(w)
	inv2 := 1 / (den * den)
	for i := range mvu.Len() {
		m, x := mvu.At(i)
		grad[m] += c * 2 * den * x * inv2
	}
	for i := range mv.Len() {
		m, x := mv.At(i)
		grad[m] -= c * 2 * num * x * inv2
	}
	for i := range mu.Len() {
		m, x := mu.At(i)
		grad[m] -= c * 2 * num * x * inv2
	}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
