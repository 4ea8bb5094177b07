package core

import (
	"errors"
	"fmt"

	"github.com/sociograph/reconcile/internal/graph"
)

// Per-node-range state sharding: a SessionState splits into R shard states
// plus one manifest, each shard holding a contiguous slice of both node
// spaces (frontier cache rows) and a contiguous chunk of the pair log, so a
// huge job's checkpoint encode and recovery decode parallelize across
// shards the way a fleet parallelizes across jobs. Each shard is itself a
// well-formed SessionState, so the existing full/delta codec applies per
// shard unchanged; the manifest carries everything global — the schedule
// position, the bounded phase log, the frontier worklists (whose queue
// order a per-node split would destroy) — plus the fingerprint fields the
// shards repeat, so a merge can prove the shards belong to the same
// checkpoint before concatenating them.
//
// The split is purely structural: MergeStateRanges(SplitStateRanges(st))
// reproduces st exactly, and the restore guarantee (resume bit-identically)
// is inherited from RestoreSession on the merged state.

// MaxStateRanges caps the shard count however large the graphs get: past
// ~64-way parallel encode the fsync path is the bottleneck, and the cap
// bounds what a corrupt manifest can demand.
const MaxStateRanges = 64

// RangeCount returns the number of state shards for a graph pair:
// ceil((n1+n2)/targetNodes), clamped to [1, MaxStateRanges]. A
// non-positive targetNodes disables sharding (returns 1).
func RangeCount(n1, n2, targetNodes int) int {
	if targetNodes <= 0 || n1 < 0 || n2 < 0 {
		return 1
	}
	total := int64(n1) + int64(n2)
	r := (total + int64(targetNodes) - 1) / int64(targetNodes)
	if r < 1 {
		return 1
	}
	if r > MaxStateRanges {
		return MaxStateRanges
	}
	return int(r)
}

// rangeSpan is a half-open node interval [start, end).
type rangeSpan struct {
	start, end int
}

func (s rangeSpan) len() int { return s.end - s.start }

// rangeSpans cuts 0..n into ranges balanced contiguous spans (sizes differ
// by at most one, larger spans first). The deterministic cut is part of the
// on-disk contract: ranged checkpoints written with one span layout must
// merge under the same layout on recovery.
func rangeSpans(n, ranges int) []rangeSpan {
	spans := make([]rangeSpan, ranges)
	base, rem := n/ranges, n%ranges
	at := 0
	for r := range spans {
		w := base
		if r < rem {
			w++
		}
		spans[r] = rangeSpan{at, at + w}
		at += w
	}
	return spans
}

// clampSeeds is a shard's seed count: the part of the global seed prefix
// that falls inside its pair chunk.
func clampSeeds(globalSeeds, chunkStart, chunkLen int) int {
	s := globalSeeds - chunkStart
	if s < 0 {
		return 0
	}
	if s > chunkLen {
		return chunkLen
	}
	return s
}

// RangeManifest is the global record accompanying a set of state shards:
// the shard geometry, every whole-checkpoint scalar, and the state that
// must not be split (phase log, frontier worklists in queue order).
type RangeManifest struct {
	Ranges  int
	NLevels int // frontier cache rows per node; 0 when no frontier state
	N1, N2  int

	TotalPairs int
	Seeds      int

	Sweeps         int
	NextBucket     int
	PhasesDropped  int
	DroppedMatched int
	HybridFrontier bool

	Phases []PhaseStat

	// Frontier is non-nil exactly when the checkpoint carries frontier
	// state; the per-node cache rows live in the shards, the queue-ordered
	// worklists and the lifetime counter live here.
	Frontier *ManifestFrontier
}

// ManifestFrontier is the unsplittable part of a frontier snapshot.
type ManifestFrontier struct {
	Rescored   int64
	DirtyLeft  []graph.NodeID
	DirtyRight []graph.NodeID
}

// frontierLevels derives the cache-rows-per-node count from a snapshot's
// side lengths, verifying the two sides agree.
func frontierLevels(st *SessionState) (int, error) {
	fr := st.Frontier
	if len(fr.Left.ProposalNode) != len(fr.Left.ProposalScore) ||
		len(fr.Right.ProposalNode) != len(fr.Right.ProposalScore) {
		return 0, errors.New("core: range split: frontier node/score lengths disagree")
	}
	nl := -1
	if st.N1 > 0 {
		if len(fr.Left.ProposalNode)%st.N1 != 0 {
			return 0, fmt.Errorf("core: range split: left cache length %d not a multiple of n1=%d", len(fr.Left.ProposalNode), st.N1)
		}
		nl = len(fr.Left.ProposalNode) / st.N1
	} else if len(fr.Left.ProposalNode) != 0 {
		return 0, errors.New("core: range split: left cache nonempty with n1=0")
	}
	if st.N2 > 0 {
		nr := len(fr.Right.ProposalNode) / st.N2
		if len(fr.Right.ProposalNode)%st.N2 != 0 {
			return 0, fmt.Errorf("core: range split: right cache length %d not a multiple of n2=%d", len(fr.Right.ProposalNode), st.N2)
		}
		if nl >= 0 && nr != nl {
			return 0, fmt.Errorf("core: range split: cache levels disagree: left %d, right %d", nl, nr)
		}
		nl = nr
	} else if len(fr.Right.ProposalNode) != 0 {
		return 0, errors.New("core: range split: right cache nonempty with n2=0")
	}
	if nl < 0 {
		nl = 0
	}
	return nl, nil
}

// SplitStateRanges splits st into ranges shard states plus a manifest.
//
// chunkStarts optionally pins where the pair log is cut: chunkStarts[r] is
// the global index where shard r's chunk begins (chunkStarts[0] = 0,
// non-decreasing, all ≤ len(st.Pairs); shard r owns [chunkStarts[r],
// chunkStarts[r+1]) and the last shard runs to the end). A delta chain
// freezes the cut at the base checkpoint's chunk lengths so appended pairs
// land in the last shard and every earlier shard diffs as a pure prefix;
// nil cuts the log evenly. The returned shards and manifest alias st's
// slices — encode or copy them before st changes.
func SplitStateRanges(st *SessionState, ranges int, chunkStarts []int) (*RangeManifest, []*SessionState, error) {
	if st == nil {
		return nil, nil, errors.New("core: range split: nil state")
	}
	if ranges < 1 || ranges > MaxStateRanges {
		return nil, nil, fmt.Errorf("core: range split: range count %d outside [1, %d]", ranges, MaxStateRanges)
	}
	if st.N1 < 0 || st.N2 < 0 {
		return nil, nil, fmt.Errorf("core: range split: negative node count (%d, %d)", st.N1, st.N2)
	}
	total := len(st.Pairs)
	starts := chunkStarts
	if starts == nil {
		starts = make([]int, ranges)
		base, rem := total/ranges, total%ranges
		at := 0
		for r := range starts {
			starts[r] = at
			at += base
			if r < rem {
				at++
			}
		}
	}
	if len(starts) != ranges {
		return nil, nil, fmt.Errorf("core: range split: %d chunk starts for %d ranges", len(starts), ranges)
	}
	for r, s := range starts {
		if s < 0 || s > total || (r > 0 && s < starts[r-1]) || (r == 0 && s != 0) {
			return nil, nil, fmt.Errorf("core: range split: bad chunk start %d at range %d", s, r)
		}
	}

	nLevels := 0
	if st.Frontier != nil {
		nl, err := frontierLevels(st)
		if err != nil {
			return nil, nil, err
		}
		nLevels = nl
	}

	man := &RangeManifest{
		Ranges:         ranges,
		NLevels:        nLevels,
		N1:             st.N1,
		N2:             st.N2,
		TotalPairs:     total,
		Seeds:          st.Seeds,
		Sweeps:         st.Sweeps,
		NextBucket:     st.NextBucket,
		PhasesDropped:  st.PhasesDropped,
		DroppedMatched: st.DroppedMatched,
		HybridFrontier: st.HybridFrontier,
		Phases:         st.Phases,
	}
	if st.Frontier != nil {
		man.Frontier = &ManifestFrontier{
			Rescored:   st.Frontier.Rescored,
			DirtyLeft:  st.Frontier.Left.Dirty,
			DirtyRight: st.Frontier.Right.Dirty,
		}
	}

	spans1 := rangeSpans(st.N1, ranges)
	spans2 := rangeSpans(st.N2, ranges)
	parts := make([]*SessionState, ranges)
	for r := 0; r < ranges; r++ {
		end := total
		if r+1 < ranges {
			end = starts[r+1]
		}
		p := &SessionState{
			Opts:           st.Opts,
			N1:             spans1[r].len(),
			N2:             spans2[r].len(),
			Pairs:          st.Pairs[starts[r]:end],
			Seeds:          clampSeeds(st.Seeds, starts[r], end-starts[r]),
			Sweeps:         st.Sweeps,
			NextBucket:     st.NextBucket,
			PhasesDropped:  st.PhasesDropped,
			DroppedMatched: st.DroppedMatched,
			HybridFrontier: st.HybridFrontier,
		}
		if st.Frontier != nil {
			p.Frontier = &FrontierSnapshot{
				Left: FrontierSideSnapshot{
					ProposalNode:  st.Frontier.Left.ProposalNode[spans1[r].start*nLevels : spans1[r].end*nLevels],
					ProposalScore: st.Frontier.Left.ProposalScore[spans1[r].start*nLevels : spans1[r].end*nLevels],
				},
				Right: FrontierSideSnapshot{
					ProposalNode:  st.Frontier.Right.ProposalNode[spans2[r].start*nLevels : spans2[r].end*nLevels],
					ProposalScore: st.Frontier.Right.ProposalScore[spans2[r].start*nLevels : spans2[r].end*nLevels],
				},
				Rescored: st.Frontier.Rescored,
			}
		}
		parts[r] = p
	}
	return man, parts, nil
}

// PairChunkStarts returns the chunk cut implied by a set of shard states:
// where each shard's pair chunk begins in the global log. Feeding it back
// into SplitStateRanges freezes the cut for a delta chain.
func PairChunkStarts(parts []*SessionState) []int {
	starts := make([]int, len(parts))
	at := 0
	for r, p := range parts {
		starts[r] = at
		at += len(p.Pairs)
	}
	return starts
}

// MergeStateRanges reassembles a SessionState from a manifest and its
// shards. It proves the shards belong together — span geometry, repeated
// fingerprint scalars, cache row counts, pair totals — before
// concatenating; mismatches mean a torn or mixed checkpoint and fail
// cleanly. Semantic validation of the merged state (pair injectivity,
// schedule position, frontier contents) stays where it always was:
// RestoreSession. With one shard the merged state shares that shard's pair
// log and cache rows rather than copying them; states are never modified in
// place (ApplyDelta builds a new one), so sharing is safe.
func MergeStateRanges(man *RangeManifest, parts []*SessionState) (*SessionState, error) {
	if man == nil {
		return nil, errors.New("core: range merge: nil manifest")
	}
	if man.Ranges < 1 || man.Ranges > MaxStateRanges {
		return nil, fmt.Errorf("core: range merge: range count %d outside [1, %d]", man.Ranges, MaxStateRanges)
	}
	if len(parts) != man.Ranges {
		return nil, fmt.Errorf("core: range merge: %d shards for %d ranges", len(parts), man.Ranges)
	}
	if man.N1 < 0 || man.N2 < 0 || man.NLevels < 0 || man.TotalPairs < 0 {
		return nil, errors.New("core: range merge: negative manifest geometry")
	}
	if man.Seeds < 0 || man.Seeds > man.TotalPairs {
		return nil, fmt.Errorf("core: range merge: seed count %d outside pair log of %d", man.Seeds, man.TotalPairs)
	}
	spans1 := rangeSpans(man.N1, man.Ranges)
	spans2 := rangeSpans(man.N2, man.Ranges)

	totalPairs := 0
	at := 0
	for r, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("core: range merge: nil shard %d", r)
		}
		if p.Opts != parts[0].Opts {
			return nil, fmt.Errorf("core: range merge: shard %d options diverge", r)
		}
		if p.N1 != spans1[r].len() || p.N2 != spans2[r].len() {
			return nil, fmt.Errorf("core: range merge: shard %d spans (%d, %d), manifest wants (%d, %d)",
				r, p.N1, p.N2, spans1[r].len(), spans2[r].len())
		}
		if p.Sweeps != man.Sweeps || p.NextBucket != man.NextBucket ||
			p.PhasesDropped != man.PhasesDropped || p.DroppedMatched != man.DroppedMatched ||
			p.HybridFrontier != man.HybridFrontier {
			return nil, fmt.Errorf("core: range merge: shard %d fingerprint diverges from manifest", r)
		}
		if len(p.Phases) != 0 {
			return nil, fmt.Errorf("core: range merge: shard %d carries %d phase entries; phases live in the manifest", r, len(p.Phases))
		}
		if p.Seeds != clampSeeds(man.Seeds, at, len(p.Pairs)) {
			return nil, fmt.Errorf("core: range merge: shard %d seed count %d inconsistent with manifest", r, p.Seeds)
		}
		if (p.Frontier != nil) != (man.Frontier != nil) {
			return nil, fmt.Errorf("core: range merge: shard %d frontier presence diverges from manifest", r)
		}
		if p.Frontier != nil {
			if len(p.Frontier.Left.ProposalNode) != p.N1*man.NLevels ||
				len(p.Frontier.Left.ProposalScore) != p.N1*man.NLevels ||
				len(p.Frontier.Right.ProposalNode) != p.N2*man.NLevels ||
				len(p.Frontier.Right.ProposalScore) != p.N2*man.NLevels {
				return nil, fmt.Errorf("core: range merge: shard %d cache rows disagree with %d levels", r, man.NLevels)
			}
			if len(p.Frontier.Left.Dirty) != 0 || len(p.Frontier.Right.Dirty) != 0 {
				return nil, fmt.Errorf("core: range merge: shard %d carries dirty worklists; worklists live in the manifest", r)
			}
			if p.Frontier.Rescored != man.Frontier.Rescored {
				return nil, fmt.Errorf("core: range merge: shard %d rescored counter diverges from manifest", r)
			}
		}
		totalPairs += len(p.Pairs)
		at += len(p.Pairs)
	}
	if totalPairs != man.TotalPairs {
		return nil, fmt.Errorf("core: range merge: shards hold %d pairs, manifest wants %d", totalPairs, man.TotalPairs)
	}

	out := &SessionState{
		Opts:           parts[0].Opts,
		N1:             man.N1,
		N2:             man.N2,
		Pairs:          concat(parts, totalPairs, func(p *SessionState) []graph.Pair { return p.Pairs }),
		Seeds:          man.Seeds,
		Sweeps:         man.Sweeps,
		NextBucket:     man.NextBucket,
		Phases:         append([]PhaseStat(nil), man.Phases...),
		PhasesDropped:  man.PhasesDropped,
		DroppedMatched: man.DroppedMatched,
		HybridFrontier: man.HybridFrontier,
	}
	if man.Frontier != nil {
		n1, n2 := man.N1*man.NLevels, man.N2*man.NLevels
		fr := &FrontierSnapshot{Rescored: man.Frontier.Rescored}
		fr.Left.ProposalNode = concat(parts, n1, func(p *SessionState) []graph.NodeID { return p.Frontier.Left.ProposalNode })
		fr.Left.ProposalScore = concat(parts, n1, func(p *SessionState) []int32 { return p.Frontier.Left.ProposalScore })
		fr.Right.ProposalNode = concat(parts, n2, func(p *SessionState) []graph.NodeID { return p.Frontier.Right.ProposalNode })
		fr.Right.ProposalScore = concat(parts, n2, func(p *SessionState) []int32 { return p.Frontier.Right.ProposalScore })
		fr.Left.Dirty = append([]graph.NodeID(nil), man.Frontier.DirtyLeft...)
		fr.Right.Dirty = append([]graph.NodeID(nil), man.Frontier.DirtyRight...)
		out.Frontier = fr
	}
	return out, nil
}

// concat joins one slice per shard into a new slice of length n. A single
// shard's slice is adopted instead: a one-range checkpoint merges without
// copying its pair log or frontier cache.
func concat[T any](parts []*SessionState, n int, get func(*SessionState) []T) []T {
	if len(parts) == 1 {
		return get(parts[0])
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, get(p)...)
	}
	return out
}
