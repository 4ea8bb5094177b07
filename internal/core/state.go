package core

import (
	"errors"
	"fmt"

	"github.com/sociograph/reconcile/internal/graph"
)

// SessionState is the complete serializable state of a Session beyond the two
// immutable graphs: the configuration, the matching with its seed boundary,
// the bucket-schedule position, the phase log, and (for EngineFrontier) the
// persistent scheduling state. Exporting at any bucket boundary and restoring
// over the same graphs yields a session whose future output is bit-identical
// to the uninterrupted original — the guarantee the resume-equivalence and
// snapshot fuzz suites pin.
//
// All slices are deep copies; a SessionState shares no memory with the
// session it was exported from.
type SessionState struct {
	Opts Options

	// N1, N2 are the node counts of the graphs the state belongs to; restore
	// rejects a graph pair of any other shape before deeper checks run.
	N1, N2 int

	// Pairs is the matching in insertion order, the first Seeds of which are
	// the construction-time seed links.
	Pairs []graph.Pair
	Seeds int

	// Sweeps counts started sweeps and NextBucket is the index of the next
	// bucket within the current sweep (0 = at a sweep boundary), together the
	// exact position in the k·log D schedule.
	Sweeps     int
	NextBucket int

	// Phases is the bounded per-bucket progress log: the most recent
	// PhaseRetainSweeps sweeps. PhasesDropped counts the evicted older
	// entries (always a whole number of sweeps) and DroppedMatched the pairs
	// they accepted, so PhasesDropped+len(Phases) is the total number of
	// bucket passes ever run.
	Phases         []PhaseStat
	PhasesDropped  int
	DroppedMatched int

	// HybridFrontier records EngineHybrid's regime at export: false while
	// still in the parallel regime, true once the session has decided to
	// hand off to the frontier engine. Always false for fixed engines.
	HybridFrontier bool

	// Frontier is the frontier engine's persistent state; nil for the
	// parallel engine and for EngineHybrid's parallel regime. It may be nil for EngineFrontier — or for EngineHybrid with
	// HybridFrontier set, e.g. exported between the regime decision and the
	// first frontier bucket — in which case restore rebuilds an equivalent
	// state from the matching.
	Frontier *FrontierSnapshot
}

// FrontierSnapshot is the frontier engine's persistent scheduling state: both
// sides' proposal caches and dirty worklists, plus the lifetime re-scoring
// counter.
type FrontierSnapshot struct {
	Left, Right FrontierSideSnapshot

	// Rescored is the engine's lifetime scoring-work counter (observability
	// only; it never influences output).
	Rescored int64
}

// FrontierSideSnapshot is one side's cache and worklist. The proposal cache
// is row-major like frontierSide.cache: entry v*nLevels+j is node v's
// proposal at schedule level j, split into parallel node/score slices.
type FrontierSideSnapshot struct {
	ProposalNode  []graph.NodeID
	ProposalScore []int32

	// Dirty lists the queued nodes awaiting re-scoring, in queue order. The
	// queued-bitmap is implied: a node is queued iff it appears here.
	Dirty []graph.NodeID
}

// ExportState deep-copies the session's complete state. It may be called at
// any bucket boundary — between runs, or from inside a progress hook (which
// runs synchronously between buckets on the run's own goroutine).
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Opts:           s.opts,
		N1:             s.g1.NumNodes(),
		N2:             s.g2.NumNodes(),
		Pairs:          s.m.Pairs(),
		Seeds:          s.m.SeedCount(),
		Sweeps:         s.sweeps,
		NextBucket:     s.pos,
		Phases:         append([]PhaseStat(nil), s.phases...),
		PhasesDropped:  s.dropped.Buckets,
		DroppedMatched: s.dropped.Matched,
		HybridFrontier: s.opts.Engine == EngineHybrid && s.hybridSwitched,
	}
	if s.fr != nil {
		st.Frontier = s.fr.export()
	}
	return st
}

// RestoreSession rebuilds a Session over the two graphs from an exported
// state, re-deriving everything the state omits (linked-neighbor counts, the
// bucket schedule). Every invariant the state must satisfy is checked before
// any of it is installed: an invalid or corrupt state returns an error and
// never a session in a half-restored shape. The restored session's future
// output is bit-identical to the exporting session's.
func RestoreSession(g1, g2 *graph.Graph, st *SessionState) (*Session, error) {
	if g1 == nil || g2 == nil {
		return nil, errors.New("core: restore: nil graph")
	}
	if st == nil {
		return nil, errors.New("core: restore: nil state")
	}
	if err := st.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if st.N1 != g1.NumNodes() || st.N2 != g2.NumNodes() {
		return nil, fmt.Errorf("core: restore: state is for %d x %d nodes, graphs have %d x %d",
			st.N1, st.N2, g1.NumNodes(), g2.NumNodes())
	}
	if st.Seeds < 0 || st.Seeds > len(st.Pairs) {
		return nil, fmt.Errorf("core: restore: seed count %d out of range for %d pairs", st.Seeds, len(st.Pairs))
	}
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), st.Pairs)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if m.Len() != len(st.Pairs) {
		// NewMatching tolerates exact duplicates; a session never records one.
		return nil, fmt.Errorf("core: restore: %d pairs contain duplicates", len(st.Pairs))
	}
	m.seeds = st.Seeds

	buckets := st.Opts.buckets(g1, g2)
	if st.Sweeps < 0 {
		return nil, fmt.Errorf("core: restore: negative sweep count %d", st.Sweeps)
	}
	if st.NextBucket < 0 || st.NextBucket >= len(buckets) {
		return nil, fmt.Errorf("core: restore: bucket position %d outside schedule of %d buckets", st.NextBucket, len(buckets))
	}
	if st.NextBucket > 0 && st.Sweeps == 0 {
		return nil, errors.New("core: restore: mid-sweep position without a started sweep")
	}
	// Every sweep runs the full schedule in order, so the phase log length
	// and per-entry schedule fields are determined by the position. The log
	// is a bounded window; the evicted prefix is whole sweeps only.
	ran := st.Sweeps * len(buckets)
	if st.NextBucket > 0 {
		ran = (st.Sweeps-1)*len(buckets) + st.NextBucket
	}
	if st.PhasesDropped < 0 || st.DroppedMatched < 0 {
		return nil, fmt.Errorf("core: restore: negative evicted-phase totals (%d entries, %d matched)", st.PhasesDropped, st.DroppedMatched)
	}
	if st.PhasesDropped%len(buckets) != 0 {
		return nil, fmt.Errorf("core: restore: evicted phase prefix of %d entries is not whole sweeps of %d buckets", st.PhasesDropped, len(buckets))
	}
	if st.PhasesDropped+len(st.Phases) != ran {
		return nil, fmt.Errorf("core: restore: phase log has %d+%d entries, schedule position implies %d", st.PhasesDropped, len(st.Phases), ran)
	}
	prevTotal := 0
	for i, ph := range st.Phases {
		gi := st.PhasesDropped + i
		if ph.Iteration != gi/len(buckets)+1 || ph.MinDegree != buckets[gi%len(buckets)] {
			return nil, fmt.Errorf("core: restore: phase %d (%+v) disagrees with the bucket schedule", gi, ph)
		}
		if ph.Matched < 0 || ph.TotalL < prevTotal {
			return nil, fmt.Errorf("core: restore: phase %d (%+v) not monotone", gi, ph)
		}
		prevTotal = ph.TotalL
	}
	if prevTotal > m.Len() {
		return nil, fmt.Errorf("core: restore: phase log reaches %d links, matching has %d", prevTotal, m.Len())
	}
	if st.HybridFrontier && st.Opts.Engine != EngineHybrid {
		return nil, fmt.Errorf("core: restore: hybrid regime flag set under fixed engine %v", st.Opts.Engine)
	}
	if st.Opts.Engine == EngineHybrid && !st.HybridFrontier && st.Frontier != nil {
		return nil, errors.New("core: restore: frontier caches present but hybrid state is in the parallel regime")
	}

	s := &Session{
		g1:             g1,
		g2:             g2,
		opts:           st.Opts,
		m:              m,
		lc:             newLinkedCounts(g1, g2, m),
		phases:         append([]PhaseStat(nil), st.Phases...),
		dropped:        PhaseTotals{Buckets: st.PhasesDropped, Matched: st.DroppedMatched},
		sweeps:         st.Sweeps,
		pos:            st.NextBucket,
		hybridSwitched: st.HybridFrontier,
	}
	if st.NextBucket > 0 {
		// Rebuild the current sweep's commit counter from the retained log
		// (the window always covers the sweep in progress), so a hybrid
		// session restored mid-sweep makes the same regime decision at the
		// sweep's end as the uninterrupted run.
		for _, ph := range s.phases[len(s.phases)-st.NextBucket:] {
			s.sweepMatched += ph.Matched
		}
	}
	wantFrontier := st.Opts.Engine == EngineFrontier ||
		(st.Opts.Engine == EngineHybrid && st.HybridFrontier)
	if wantFrontier {
		if st.Frontier != nil {
			fr, err := restoreFrontier(g1, g2, st.Opts, st.Frontier)
			if err != nil {
				return nil, err
			}
			s.fr = fr
		} else if st.Opts.Engine == EngineFrontier {
			// No serialized frontier state (e.g. an engine switch at restore):
			// a fresh initialization is equivalent — every node that could
			// propose is queued, and re-scoring a clean node reproduces its
			// cached row, so only the scheduling-work counter differs. A
			// hybrid session in the frontier regime takes the same rebuild
			// lazily at its next bucket (ensureHybridFrontier).
			s.fr = newFrontierState(g1, g2, m, s.lc, st.Opts)
		}
	}
	return s, nil
}

// export deep-copies the frontier state into its serializable form.
func (f *frontierState) export() *FrontierSnapshot {
	return &FrontierSnapshot{
		Left:     f.left.export(),
		Right:    f.right.export(),
		Rescored: f.rescored,
	}
}

func (s *frontierSide) export() FrontierSideSnapshot {
	nodes := make([]graph.NodeID, len(s.cache))
	scores := make([]int32, len(s.cache))
	for i, c := range s.cache {
		nodes[i], scores[i] = c.node, c.score
	}
	return FrontierSideSnapshot{
		ProposalNode:  nodes,
		ProposalScore: scores,
		Dirty:         append([]graph.NodeID(nil), s.dirty...),
	}
}

// restoreFrontier validates a serialized frontier state against the graphs
// and schedule and rebuilds the engine state from it.
func restoreFrontier(g1, g2 *graph.Graph, opts Options, snap *FrontierSnapshot) (*frontierState, error) {
	levels := opts.buckets(g1, g2)
	if snap.Rescored < 0 {
		return nil, fmt.Errorf("core: restore: negative frontier work counter %d", snap.Rescored)
	}
	f := &frontierState{
		levels:    levels,
		topExp:    topExpOf(levels),
		threshold: int32(opts.Threshold),
		rescored:  snap.Rescored,
	}
	if err := f.left.restore(g1.NumNodes(), len(levels), g2.NumNodes(), snap.Left); err != nil {
		return nil, fmt.Errorf("core: restore: left frontier: %w", err)
	}
	if err := f.right.restore(g2.NumNodes(), len(levels), g1.NumNodes(), snap.Right); err != nil {
		return nil, fmt.Errorf("core: restore: right frontier: %w", err)
	}
	return f, nil
}

func (s *frontierSide) restore(n, nLevels, nPartners int, snap FrontierSideSnapshot) error {
	if len(snap.ProposalNode) != n*nLevels || len(snap.ProposalScore) != n*nLevels {
		return fmt.Errorf("cache is %dx%d entries, schedule needs %d x %d levels",
			len(snap.ProposalNode), len(snap.ProposalScore), n, nLevels)
	}
	cache := make([]candidate, n*nLevels)
	for i := range cache {
		node, score := snap.ProposalNode[i], snap.ProposalScore[i]
		switch {
		case score < 0:
			return fmt.Errorf("cache entry %d has negative score %d", i, score)
		case score == 0 && node != 0:
			return fmt.Errorf("cache entry %d is an abstention naming node %d", i, node)
		case score > 0 && int(node) >= nPartners:
			return fmt.Errorf("cache entry %d proposes out-of-range node %d (%d partners)", i, node, nPartners)
		}
		cache[i] = candidate{node: node, score: score}
	}
	queued := make([]bool, n)
	dirty := make([]graph.NodeID, 0, len(snap.Dirty))
	for _, v := range snap.Dirty {
		if int(v) >= n {
			return fmt.Errorf("dirty entry %d out of range (%d nodes)", v, n)
		}
		if queued[v] {
			return fmt.Errorf("node %d queued twice", v)
		}
		queued[v] = true
		dirty = append(dirty, v)
	}
	s.cache = cache
	s.nLevels = nLevels
	s.queued = queued
	s.dirty = dirty
	s.run = nil
	return nil
}
