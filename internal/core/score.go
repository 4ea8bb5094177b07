package core

import (
	"math"
	"math/bits"

	"github.com/sociograph/reconcile/internal/graph"
)

// candidate is one side's best partner proposal: the top-ranked partner for
// a node, or none (score 0) when the node had no eligible partner, no
// witness count >= T, a disqualifying tie, or an insufficient margin.
type candidate struct {
	node  graph.NodeID
	score int32 // witness count of the selected partner
}

// passParams bundles the per-bucket scoring configuration.
type passParams struct {
	// floorExp is j for the pass's degree floor 2^j (floors are always powers
	// of two): a node is eligible iff its free level exceeds floorExp.
	floorExp  uint8
	threshold int32
	ties      TieBreak
	weighted  bool // rank by Adamic-Adar weights instead of raw counts
	minMargin int32
}

func (o Options) passParams(minDeg int) passParams {
	return passParams{
		floorExp:  uint8(bits.Len(uint(minDeg)) - 1),
		threshold: int32(o.Threshold),
		ties:      o.Ties,
		weighted:  o.Scoring == ScoreAdamicAdar,
		minMargin: int32(o.MinMargin),
	}
}

// witnessWeight is the Adamic-Adar style contribution of a witness pair
// whose endpoints have the given degrees: rarely-linked witnesses count for
// more than celebrities.
func witnessWeight(d1, d2 int) float32 {
	d := d1
	if d2 > d {
		d = d2
	}
	return float32(1 / math.Log2(float64(2+d)))
}

// scorer is the per-worker scratch for directional scoring passes. Scores
// are accumulated in dense arrays indexed by partner node, with a touched
// list for O(candidates) clearing — the matcher's hot path allocates nothing
// per node.
type scorer struct {
	scores  []int32
	weights []float32 // nil unless weighted scoring is on
	touched []graph.NodeID
	work    workCounts
}

// workCounts tallies scoring work in hardware-independent units. Scorers
// add to it once per node and once per selection loop (the witnesses are
// the summed scores they clear), never per increment, so the inner loop
// stays as it is.
type workCounts struct {
	scored    int64 // nodes whose candidates were accumulated
	witnesses int64 // witness increments over those accumulations
}

func (w *workCounts) add(o workCounts) {
	w.scored += o.scored
	w.witnesses += o.witnesses
}

func newScorer(nPartners int, weighted bool) *scorer {
	s := &scorer{scores: make([]int32, nPartners)}
	if weighted {
		s.weights = make([]float32, nPartners)
	}
	return s
}

// bestFor computes the similarity-witness scores of every candidate partner
// for node v in graph ga, where partners live in graph gb:
//
//	for each neighbor u of v in ga that is linked to u' = link[u],
//	    every unmatched w ∈ N_gb(u') with deg_gb(w) >= 2^floorExp
//	    gains one witness (u, u').
//
// Candidates are ranked by witness count (or by Adamic-Adar weight under
// weighted scoring); the winner must have count >= threshold, survive the
// tie policy, and beat every other candidate's count by minMargin.
// partnerFree holds the partners' free levels (see linkedCounts): one byte
// decides both "unmatched" and "degree at the floor".
func (s *scorer) bestFor(
	v graph.NodeID,
	ga, gb *graph.Graph,
	link []graph.NodeID,
	partnerFree []uint8,
	p passParams,
) candidate {
	s.work.scored++
	for _, u := range ga.Neighbors(v) {
		u2 := link[u]
		if u2 == NoMatch {
			continue
		}
		var wt float32
		if s.weights != nil {
			wt = witnessWeight(ga.Degree(u), gb.Degree(u2))
		}
		for _, w := range gb.Neighbors(u2) {
			if partnerFree[w] <= p.floorExp {
				continue
			}
			if s.scores[w] == 0 {
				s.touched = append(s.touched, w)
			}
			s.scores[w]++
			if s.weights != nil {
				s.weights[w] += wt
			}
		}
	}
	if len(s.touched) == 0 {
		return candidate{}
	}

	// Selection pass: rank by the configured key with the tie policy.
	rank := func(w graph.NodeID) float64 {
		if s.weights != nil {
			return float64(s.weights[w])
		}
		return float64(s.scores[w])
	}
	best := s.touched[0]
	bestKey := rank(best)
	tie := false
	for _, w := range s.touched[1:] {
		k := rank(w)
		switch {
		case k > bestKey:
			best, bestKey = w, k
			tie = false
		case k == bestKey:
			if p.ties == TieLowestID && w < best {
				best = w
			}
			tie = true
		}
	}

	// Margin pass: the selected candidate's count must clear the threshold
	// and beat every other candidate's count by minMargin; clear scratch.
	selCount := s.scores[best]
	var maxOther int32
	var witnesses int64
	for _, w := range s.touched {
		witnesses += int64(s.scores[w])
		if w != best && s.scores[w] > maxOther {
			maxOther = s.scores[w]
		}
		s.scores[w] = 0
		if s.weights != nil {
			s.weights[w] = 0
		}
	}
	s.work.witnesses += witnesses
	s.touched = s.touched[:0]

	switch {
	case selCount < p.threshold:
		return candidate{}
	case tie && p.ties == TieReject:
		return candidate{}
	case p.minMargin > 0 && selCount-maxOther < p.minMargin:
		return candidate{}
	}
	return candidate{node: best, score: selCount}
}

// passDirection identifies which side of the bipartite candidate space a
// scoring pass iterates.
type passDirection int

const (
	fromLeft  passDirection = iota // iterate v1 ∈ G1, partners in G2
	fromRight                      // iterate v2 ∈ G2, partners in G1
)

// passViews bundles the graph/matching views for one direction.
func passViews(dir passDirection, g1, g2 *graph.Graph, m *Matching) (ga, gb *graph.Graph, link []graph.NodeID) {
	if dir == fromLeft {
		return g1, g2, m.left
	}
	return g2, g1, m.right
}

// scoreRange computes candidates for nodes [lo, hi) of the iterating side.
// out[v] receives the proposal for node v (zero candidate when none).
// Eligibility: the node itself is unmatched with degree at the floor (its
// free level exceeds floorExp), and has at least threshold linked neighbors
// (its score with any partner is bounded by that count, so fewer linked
// neighbors cannot clear T).
func scoreRange(
	dir passDirection,
	g1, g2 *graph.Graph,
	m *Matching,
	lc *linkedCounts,
	p passParams,
	lo, hi int,
	sc *scorer,
	out []candidate,
) {
	ga, gb, link := passViews(dir, g1, g2, m)
	linked, selfFree, partnerFree := lc.side(dir)
	for v := lo; v < hi; v++ {
		out[v] = candidate{}
		if selfFree[v] <= p.floorExp || linked[v] < p.threshold {
			continue
		}
		out[v] = sc.bestFor(graph.NodeID(v), ga, gb, link, partnerFree, p)
	}
}
