package core

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/sociograph/reconcile/internal/graph"
)

func TestFrontierMatchesNaive(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g1, g2, seeds := testInstance(seed, 120)
		opts := DefaultOptions()
		opts.Engine = EngineFrontier
		opts.Threshold = 2
		res, err := Reconcile(g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveReconcile(t, g1, g2, seeds, opts)
		if !pairsEqual(res.Pairs, want) {
			t.Fatalf("seed %d: engine %d pairs, naive %d pairs", seed, len(res.Pairs), len(want))
		}
	}
}

// TestFrontierMatchesSequential pins the engine across the whole option
// surface: for random instances and every combination of tie policy,
// scoring, bucketing, margin and threshold, the frontier engine must produce
// the exact pair sequence and phase statistics of the sequential reference.
func TestFrontierMatchesSequential(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g1, g2, seeds := testInstance(seed, 300)
		for _, ties := range []TieBreak{TieReject, TieLowestID} {
			for _, scoring := range []Scoring{ScoreWitnessCount, ScoreAdamicAdar} {
				for _, nobuck := range []bool{false, true} {
					opts := DefaultOptions()
					opts.Threshold = 1 + int(seed%3)
					opts.MinMargin = int(seed % 2)
					opts.Ties = ties
					opts.Scoring = scoring
					opts.DisableBucketing = nobuck
					opts.Engine = EngineParallel
					opts.Workers = 1
					seq, err := Reconcile(g1, g2, seeds, opts)
					if err != nil {
						return false
					}
					for _, workers := range []int{0, 1, 3} {
						opts.Engine = EngineFrontier
						opts.Workers = workers
						fr, err := Reconcile(g1, g2, seeds, opts)
						if err != nil {
							return false
						}
						if !resultsIdentical(seq, fr) {
							t.Logf("mismatch: seed=%d ties=%v scoring=%v nobuck=%v workers=%d",
								seed, ties, scoring, nobuck, workers)
							return false
						}
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 6})
	if err != nil {
		t.Error(err)
	}
}

// resultsIdentical requires bit-identical results: same pairs in the same
// discovery order, the same per-bucket phase statistics (the retained
// window), and the same cumulative totals.
func resultsIdentical(a, b *Result) bool {
	if len(a.Pairs) != len(b.Pairs) || len(a.Phases) != len(b.Phases) || a.Seeds != b.Seeds ||
		a.Totals != b.Totals {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return false
		}
	}
	return true
}

// TestFrontierIncrementalMatchesSequential drives the same multi-run
// schedule — run, ingest late seeds, run again, run to convergence — on both
// engines and requires identical state at the end. This is the production
// Session workflow the frontier's persistent caches must survive.
func TestFrontierIncrementalMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{3, 9, 27} {
		g1, g2, seeds := testInstance(seed, 400)
		half := len(seeds) / 2
		run := func(ec engineCase) *Result {
			s, err := NewSession(g1, g2, seeds[:half], ec.with(DefaultOptions()))
			if err != nil {
				t.Fatal(err)
			}
			s.RunContext(t.Context(), 1)
			// A link discovered in the first run may conflict with a late
			// seed; the error and the partial seed application must be
			// identical across engines, so it is data, not a failure.
			if err := s.AddSeeds(seeds[half:]); err != nil {
				t.Logf("engine %v: AddSeeds: %v", ec.name, err)
			}
			s.RunContext(t.Context(), 1)
			s.RunUntilStableContext(t.Context(), 4)
			return s.Result()
		}
		seq := run(sequentialCase)
		fr := run(frontierCase)
		if !resultsIdentical(seq, fr) {
			t.Fatalf("seed %d: incremental schedule diverged: seq %d pairs, frontier %d pairs",
				seed, len(seq.Pairs), len(fr.Pairs))
		}
	}
}

// TestFrontierCancelPartialResult cancels a frontier run at every bucket
// boundary in turn and checks that each partial Result is a valid prefix of
// the full run: the same leading pairs (monotonicity — links are never
// retracted), injective, and every discovered link has at least Threshold
// similarity witnesses under the partial matching itself (witness counts
// only grow with the matching, so clearing T at commit time implies clearing
// it under any later matching).
func TestFrontierCancelPartialResult(t *testing.T) {
	g1, g2, seeds := testInstance(5, 400)
	opts := DefaultOptions()
	opts.Engine = EngineFrontier

	full, err := Reconcile(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	totalBuckets := len(full.Phases)
	if totalBuckets < 4 {
		t.Fatalf("instance too small to cancel mid-run: %d buckets", totalBuckets)
	}

	for stop := 1; stop < totalBuckets; stop++ {
		ctx, cancel := context.WithCancel(context.Background())
		buckets := 0
		res, err := ReconcileContext(ctx, g1, g2, seeds, opts, func(e PhaseEvent) {
			buckets++
			if buckets == stop {
				cancel()
			}
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("stop=%d: err = %v, want context.Canceled", stop, err)
		}
		if len(res.Phases) != stop {
			t.Fatalf("stop=%d: ran %d buckets", stop, len(res.Phases))
		}

		// Prefix of the full run, pair for pair.
		if len(res.Pairs) > len(full.Pairs) {
			t.Fatalf("stop=%d: partial has %d pairs, full only %d", stop, len(res.Pairs), len(full.Pairs))
		}
		for i, p := range res.Pairs {
			if full.Pairs[i] != p {
				t.Fatalf("stop=%d: pair %d is %v, full run has %v — not a prefix", stop, i, p, full.Pairs[i])
			}
		}

		// Injective, and discoveries clear the threshold under the partial
		// matching.
		m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), res.Pairs)
		if err != nil {
			t.Fatalf("stop=%d: partial result not injective: %v", stop, err)
		}
		if err := m.validateInjective(); err != nil {
			t.Fatalf("stop=%d: %v", stop, err)
		}
		for _, p := range res.Pairs[res.Seeds:] {
			if s := SimilarityWitnesses(g1, g2, m, p.Left, p.Right); s < opts.Threshold {
				t.Fatalf("stop=%d: discovered pair %v has %d witnesses < T=%d", stop, p, s, opts.Threshold)
			}
		}
	}
}

// TestFrontierSkipsCleanNodes pins the scheduling claim itself: once a sweep
// commits nothing, every cache is clean and further sweeps re-score nothing,
// where the full engines would rescan both node sets every pass.
func TestFrontierSkipsCleanNodes(t *testing.T) {
	g1, g2, seeds := testInstance(13, 600)
	opts := DefaultOptions()
	opts.Engine = EngineFrontier
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilStableContext(t.Context(), 10)
	afterStable := s.fr.rescored

	// The stable sweep found nothing, so no node was invalidated.
	s.RunContext(t.Context(), 1)
	if got := s.fr.rescored; got != afterStable {
		t.Fatalf("converged sweep re-scored %d nodes, want 0", got-afterStable)
	}

	// Sanity-bound the total scheduling work: a full engine scores up to
	// (n1+n2) nodes per bucket pass; the frontier's lifetime total should
	// stay well under the full engines' per-sweep cost times the sweep count.
	passes := len(s.Result().Phases)
	fullWork := int64(g1.NumNodes()+g2.NumNodes()) * int64(passes)
	if s.fr.rescored*2 > fullWork {
		t.Fatalf("frontier re-scored %d nodes over %d passes; full engines would score %d — no scheduling win",
			s.fr.rescored, passes, fullWork)
	}
}

// TestFrontierAddSeedsReactivates checks that seed ingestion after
// convergence re-opens exactly the neighborhoods of the new links: the next
// run re-scores something, discovers whatever the sequential engine would,
// and goes idle again.
func TestFrontierAddSeedsReactivates(t *testing.T) {
	g1, g2, seeds := testInstance(21, 500)
	if len(seeds) < 8 {
		t.Fatal("instance has too few seeds")
	}
	late := seeds[len(seeds)-4:]
	early := seeds[:len(seeds)-4]

	o := DefaultOptions()
	o.Engine = EngineFrontier
	s, err := NewSession(g1, g2, early, o)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilStableContext(t.Context(), 10)
	idle := s.fr.rescored
	s.RunContext(t.Context(), 1)
	if s.fr.rescored != idle {
		t.Fatal("converged session not idle")
	}

	// Keep only late seeds that do not collide with links the first phase
	// already discovered, so at least one genuinely new link is ingested.
	fresh := late[:0:0]
	for _, p := range late {
		if s.m.LeftMatch(p.Left) == NoMatch && s.m.RightMatch(p.Right) == NoMatch {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("all late seeds collide with discovered links; pick another instance seed")
	}
	late = fresh
	if err := s.AddSeeds(late); err != nil {
		t.Fatal(err)
	}
	s.RunUntilStableContext(t.Context(), 10)
	if s.fr.rescored == idle {
		t.Fatal("AddSeeds did not re-open the frontier")
	}

	// Same final state as the sequential engine driven through the same
	// schedule.
	oSeq := o
	oSeq.Engine = EngineParallel
	oSeq.Workers = 1
	sq, err := NewSession(g1, g2, early, oSeq)
	if err != nil {
		t.Fatal(err)
	}
	sq.RunUntilStableContext(t.Context(), 10)
	sq.RunContext(t.Context(), 1)
	if err := sq.AddSeeds(late); err != nil {
		t.Fatal(err)
	}
	sq.RunUntilStableContext(t.Context(), 10)
	if !pairsEqual(s.Result().Pairs, sq.Result().Pairs) {
		t.Fatalf("post-AddSeeds states diverge: frontier %d pairs, sequential %d",
			s.Len(), sq.Len())
	}
}

// TestFrontierValidateAccepts covers the new engine constant in option
// validation and its String form.
func TestFrontierValidateAccepts(t *testing.T) {
	o := DefaultOptions()
	if o.Engine != EngineHybrid {
		t.Fatalf("default engine = %v, want hybrid", o.Engine)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	o.Engine = EngineFrontier
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if EngineFrontier.String() != "frontier" {
		t.Fatalf("String() = %q", EngineFrontier.String())
	}
	if EngineHybrid.String() != "hybrid" {
		t.Fatalf("String() = %q", EngineHybrid.String())
	}
	o.Engine = Engine(99)
	if err := o.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestFrontierEmptyAndTinyGraphs exercises degenerate shapes the worklists
// must survive: empty sides, no seeds, single nodes.
func TestFrontierEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	one := graph.FromEdges(1, nil)
	o := DefaultOptions()
	o.Engine = EngineFrontier
	for _, tc := range []struct {
		name   string
		g1, g2 *graph.Graph
	}{
		{"both empty", empty, empty},
		{"left empty", empty, one},
		{"right empty", one, empty},
		{"singletons", one, one},
	} {
		res, err := Reconcile(tc.g1, tc.g2, nil, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Pairs) != 0 {
			t.Fatalf("%s: found %d pairs in trivial instance", tc.name, len(res.Pairs))
		}
	}
}
