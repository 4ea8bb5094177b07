package core

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/sociograph/reconcile/internal/graph"
)

// PhaseStat records one bucket pass of one iteration for observability.
type PhaseStat struct {
	Iteration int // 1-based sweep number
	MinDegree int // the 2^j floor of this bucket
	Matched   int // pairs accepted in this pass
	TotalL    int // |L| after the pass
}

// PhaseTotals aggregates a run's complete phase history, including entries
// evicted from the bounded Phases window of a long-lived session.
type PhaseTotals struct {
	Buckets int // bucket passes ever run
	Matched int // pairs accepted across all passes (seeds excluded)
}

// Result is the output of Reconcile.
type Result struct {
	// Pairs holds every link in L: the seeds first, then discoveries in the
	// order they were made.
	Pairs []graph.Pair
	// NewPairs holds only the discovered links.
	NewPairs []graph.Pair
	// Seeds is the number of seed links the run started from.
	Seeds int
	// Phases records per-bucket progress. Sessions retain a bounded window
	// (the most recent PhaseRetainSweeps sweeps); Totals carries what the
	// window no longer shows.
	Phases []PhaseStat
	// Totals aggregates every bucket pass ever run, evicted ones included.
	Totals PhaseTotals
}

// Reconcile runs User-Matching over the two observed networks and the seed
// links, returning the expanded set of identification links. It never
// modifies its inputs. The matching is injective: no node appears in two
// output pairs. Both engines are deterministic; for fixed inputs and options
// the result is identical regardless of Workers.
func Reconcile(g1, g2 *graph.Graph, seeds []graph.Pair, opts Options) (*Result, error) {
	//lint:allow ctx-propagation pre-context entry point kept for API compatibility and pinned by equivalence tests; cancellable callers use ReconcileContext
	return ReconcileContext(context.Background(), g1, g2, seeds, opts, nil)
}

// ReconcileContext is Reconcile with cancellation and observability: the
// context is checked at every bucket-phase boundary, and the optional
// progress hook receives a PhaseEvent after each pass. When the context ends
// mid-run the partial Result accumulated so far is returned together with
// ctx.Err(); the result is valid (the algorithm is monotone, links are never
// retracted), just incomplete.
func ReconcileContext(ctx context.Context, g1, g2 *graph.Graph, seeds []graph.Pair, opts Options, progress func(PhaseEvent)) (*Result, error) {
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		return nil, err
	}
	s.progress = progress
	if _, err := s.RunContext(ctx, opts.Iterations); err != nil {
		return s.Result(), err
	}
	return s.Result(), nil
}

// linkedCounts tracks, per node, how many of its neighbors are currently
// linked. A node's similarity score with any partner is bounded by its
// linked-neighbor count, so nodes below the threshold can be skipped without
// scoring — a pure optimization with identical output (the engine
// equivalence and naive-reference tests pin this). It is the difference
// between rescanning every low-degree node in all k·log D bucket passes and
// touching only nodes that could possibly match.
//
// Beside the counts it keeps each node's free level: bits.Len(degree) while
// the node is unlinked, 0 once linked. A node is eligible at degree floor
// 2^j exactly when its free level exceeds j, so the scoring inner loop
// decides "unlinked and at the floor" with one read of an n-byte array,
// where the Matching and the degree offsets would cost three reads across
// 12n bytes. Both are maintained here because newLinkedCounts and addPair
// are the only places L grows.
type linkedCounts struct {
	left      []int32
	right     []int32
	leftFree  []uint8
	rightFree []uint8
}

func newLinkedCounts(g1, g2 *graph.Graph, m *Matching) *linkedCounts {
	lc := &linkedCounts{
		left:      make([]int32, g1.NumNodes()),
		right:     make([]int32, g2.NumNodes()),
		leftFree:  freeLevels(g1),
		rightFree: freeLevels(g2),
	}
	for _, p := range m.pairs {
		lc.addPair(g1, g2, p)
	}
	return lc
}

// freeLevels returns every node's free level as if no node were linked.
func freeLevels(g *graph.Graph) []uint8 {
	free := make([]uint8, g.NumNodes())
	for v := range free {
		free[v] = uint8(bits.Len(uint(g.Degree(graph.NodeID(v)))))
	}
	return free
}

func (lc *linkedCounts) addPair(g1, g2 *graph.Graph, p graph.Pair) {
	for _, u := range g1.Neighbors(p.Left) {
		lc.left[u]++
	}
	for _, u := range g2.Neighbors(p.Right) {
		lc.right[u]++
	}
	lc.leftFree[p.Left] = 0
	lc.rightFree[p.Right] = 0
}

// side returns the linked counts and free levels of the iterating side of
// a pass in direction dir, and the free levels of its partner side.
func (lc *linkedCounts) side(dir passDirection) (linked []int32, selfFree, partnerFree []uint8) {
	if dir == fromLeft {
		return lc.left, lc.leftFree, lc.rightFree
	}
	return lc.right, lc.rightFree, lc.leftFree
}

// fullScan is the per-session scratch of the full-scan (parallel) engine,
// reused across bucket passes: both sides' proposal arrays and the
// per-worker scorers, sized for the larger side so one pool serves both
// directions.
type fullScan struct {
	leftBest  []candidate
	rightBest []candidate
	scorers   []*scorer
}

func newFullScan(g1, g2 *graph.Graph) *fullScan {
	return &fullScan{
		leftBest:  make([]candidate, g1.NumNodes()),
		rightBest: make([]candidate, g2.NumNodes()),
	}
}

// runBucket performs one scoring pass at the given degree floor and commits
// every mutual-best pair with score >= T. Returns the number of new links.
// On one worker it is the sequential reference.
func (fs *fullScan) runBucket(g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, minDeg int, opts Options) int {
	p := opts.passParams(minDeg)
	workers := opts.workers()
	fs.pass(fromLeft, g1, g2, m, lc, p, fs.leftBest, workers)
	fs.pass(fromRight, g1, g2, m, lc, p, fs.rightBest, workers)

	// Commit mutual bests. leftBest[v1] proposes v2; accept iff v2 proposes
	// v1 back. Scores agree automatically (witness counts are symmetric),
	// and each node occurs in at most one accepted pair, so the commits
	// cannot conflict.
	matched := 0
	for v1, c := range fs.leftBest {
		if c.score == 0 {
			continue
		}
		back := fs.rightBest[c.node]
		if back.score == 0 || back.node != graph.NodeID(v1) {
			continue
		}
		pr := graph.Pair{Left: graph.NodeID(v1), Right: c.node}
		m.add(pr)
		lc.addPair(g1, g2, pr)
		matched++
	}
	return matched
}

// pass is scoreRange over every node of one side, scheduled by forBlocks:
// workers claim node blocks and score them with their own scorer. Every
// node's proposal lands in its own slot of best and depends only on state
// the pass does not write, so the result is independent of scheduling.
func (fs *fullScan) pass(dir passDirection, g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, p passParams, best []candidate, workers int) {
	workers = blockWorkers(len(best), workers)
	for len(fs.scorers) < workers {
		fs.scorers = append(fs.scorers, newScorer(max(g1.NumNodes(), g2.NumNodes()), p.weighted))
	}
	forBlocks(len(best), workers, func(w, lo, hi int) {
		scoreRange(dir, g1, g2, m, lc, p, lo, hi, fs.scorers[w], best)
	})
}

// claimBlock is the number of consecutive work items a worker claims at a
// time. Load varies wildly between nodes — in preferential-attachment graphs
// the low IDs hold the hubs — so workers claim small blocks from a shared
// counter rather than splitting the range evenly up front; 256 items keep
// the claims rare next to the scoring they schedule.
const claimBlock = 256

// blockWorkers caps workers at the number of blocks n items make (at least
// one).
func blockWorkers(n, workers int) int {
	return max(1, min(workers, (n+claimBlock-1)/claimBlock))
}

// forBlocks calls fn(w, lo, hi) for consecutive blocks [lo, hi) covering
// [0, n), spread over blockWorkers(n, workers) goroutines that claim blocks
// from an atomic counter; w identifies the calling worker, so fn may use
// per-worker scratch indexed by it. With one worker it runs inline. It
// returns once every block is done.
func forBlocks(n, workers int, fn func(w, lo, hi int)) {
	workers = blockWorkers(n, workers)
	if workers == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(1)-1) * claimBlock
				if lo >= n {
					return
				}
				fn(w, lo, min(lo+claimBlock, n))
			}
		}()
	}
	wg.Wait()
}

// SimilarityWitnesses counts the similarity witnesses between v1 ∈ G1 and
// v2 ∈ G2 under matching m — Definition 1 of the paper. Exposed for tests,
// diagnostics, and the theory-validation experiments.
func SimilarityWitnesses(g1, g2 *graph.Graph, m *Matching, v1, v2 graph.NodeID) int {
	count := 0
	for _, u1 := range g1.Neighbors(v1) {
		u2 := m.LeftMatch(u1)
		if u2 == NoMatch {
			continue
		}
		if g2.HasEdge(u2, v2) {
			count++
		}
	}
	return count
}
