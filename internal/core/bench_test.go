package core

import (
	"fmt"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
)

// Matcher micro-benchmarks: the per-bucket scoring pass under different
// schedules and policies, on a mid-size PA instance.

func benchInstance(b *testing.B) (*graph.Graph, *graph.Graph, []graph.Pair) {
	b.Helper()
	return testInstance(77, 20000)
}

func benchRun(b *testing.B, opts Options) {
	g1, g2, seeds := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconcile(g1, g2, seeds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBucketed(b *testing.B) {
	benchRun(b, DefaultOptions())
}

// BenchmarkEngine compares the in-core engines on the identical instance
// and configuration; their outputs are bit-identical, so the ns/op ratios
// are pure scheduling cost. The sequential row is the parallel engine on one
// worker, so its ratio to the workers=2 row is the 1-core vs 2-core scaling
// efficiency (on a machine with at least 2 idle cores). Every row also
// reports hardware-independent work counts: nodes scored (candidate
// accumulations) and witness increments, plus the frontier state's
// re-scoring count on the rows that build one.
func BenchmarkEngine(b *testing.B) {
	type row struct {
		name    string
		engine  Engine
		workers int
	}
	rows := []row{
		{"sequential", EngineParallel, 1},
		{"parallel", EngineParallel, 0},
		{"frontier", EngineFrontier, 0},
		{"hybrid", EngineHybrid, 0},
		{"parallel-workers=2", EngineParallel, 2},
	}
	g1, g2, seeds := benchInstance(b)
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			o := DefaultOptions()
			o.Engine = r.engine
			o.Workers = r.workers
			var work workCounts
			var rescored int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := NewSession(g1, g2, seeds, o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.RunContext(b.Context(), o.Iterations); err != nil {
					b.Fatal(err)
				}
				work.add(s.scoringWork())
				if s.fr != nil {
					rescored += s.fr.rescored
				}
			}
			b.ReportMetric(float64(work.scored)/float64(b.N), "nodes-scored/op")
			b.ReportMetric(float64(work.witnesses)/float64(b.N), "witnesses/op")
			if r.engine == EngineFrontier || r.engine == EngineHybrid {
				b.ReportMetric(float64(rescored)/float64(b.N), "rescored/op")
			}
		})
	}
}

// BenchmarkHybridCrossover is the calibration harness behind
// hybridCrossoverRate: on the BenchmarkEngine instance it prices one
// additional sweep at each point of the commit-rate decay, on both fixed
// regimes. Each sub-benchmark advances a session to sweep boundary s-1 once,
// then repeatedly restores that state and times sweep s alone, reporting the
// sweep's commit rate (matched per node, scaled by 1e6 to survive the metric
// format) alongside ns/op. The crossover constant is chosen between the
// commit rate of the last parallel-won sweep and the first frontier-won
// sweep; see hybrid.go for the recorded numbers.
func BenchmarkHybridCrossover(b *testing.B) {
	g1, g2, seeds := benchInstance(b)
	nodes := float64(g1.NumNodes() + g2.NumNodes())
	for s := 1; s <= 6; s++ {
		for _, engine := range []Engine{EngineParallel, EngineFrontier} {
			b.Run(fmt.Sprintf("sweep%d/%s", s, engine), func(b *testing.B) {
				o := DefaultOptions()
				o.Engine = engine
				base, err := NewSession(g1, g2, seeds, o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := base.RunContext(b.Context(), s-1); err != nil {
					b.Fatal(err)
				}
				st := base.ExportState()
				matched := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sess, err := RestoreSession(g1, g2, st)
					if err != nil {
						b.Fatal(err)
					}
					before := sess.Len()
					b.StartTimer()
					if _, err := sess.RunContext(b.Context(), 1); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					matched = sess.Len() - before
					b.StartTimer()
				}
				b.ReportMetric(float64(matched)/nodes*1e6, "commit-rate-ppm")
			})
		}
	}
}

// BenchmarkEngineHighThreshold is the frontier's best case during a cold
// run: at T=5 most nodes abstain, so after the first pass almost nothing is
// dirty while the full engines keep re-scanning both node sets.
func BenchmarkEngineHighThreshold(b *testing.B) {
	for _, engine := range []Engine{EngineParallel, EngineFrontier} {
		b.Run(engine.String(), func(b *testing.B) {
			o := DefaultOptions()
			o.Engine = engine
			o.Threshold = 5
			benchRun(b, o)
		})
	}
}

func BenchmarkUnbucketed(b *testing.B) {
	o := DefaultOptions()
	o.DisableBucketing = true
	benchRun(b, o)
}

func BenchmarkHighThreshold(b *testing.B) {
	o := DefaultOptions()
	o.Threshold = 5 // the linked-count skip prunes most nodes
	benchRun(b, o)
}

func BenchmarkWeightedScoring(b *testing.B) {
	o := DefaultOptions()
	o.Scoring = ScoreAdamicAdar
	benchRun(b, o)
}

func BenchmarkSimilarityWitnesses(b *testing.B) {
	g1, g2, seeds := benchInstance(b)
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := graph.NodeID(i % g1.NumNodes())
		SimilarityWitnesses(g1, g2, m, v, v)
	}
}
