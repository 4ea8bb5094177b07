package reconcile_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile"
)

// chainRecord is one checkpoint of a victim run: the chain form (a full
// snapshot or a delta record) plus the monolithic state snapshot of the same
// moment, for the bit-identity comparison.
type chainRecord struct {
	full       bool
	data       []byte // WriteFull or WriteDelta bytes
	monolithic []byte // SnapshotState bytes at the same boundary
}

// TestDeltaChainResumeEquivalence extends the PR 3 resume-equivalence
// guarantee to delta chains, on every engine: a run checkpointed as
// (full + per-bucket deltas), cut at any checkpoint, replayed and resumed,
// finishes bit-identically to the run that was never interrupted — and the
// replayed state is byte-identical to the monolithic snapshot taken at the
// same boundary, so restore-from-chain and restore-from-snapshot are the
// same operation. The hybrid row runs a schedule long enough to cross its
// regime handoff, whose checkpoint is not delta-expressible: the chain must
// re-anchor with a full there (ErrFullRequired) and keep replaying.
func TestDeltaChainResumeEquivalence(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	for _, ec := range []engineCase{frontierCase, parallelCase, sequentialCase, hybridCase} {
		t.Run(ec.name, func(t *testing.T) {
			iterations := 3
			if ec.engine == reconcile.EngineHybrid {
				iterations = 8 // commits decay to zero and the handoff fires mid-chain
			}
			opts := append(ec.options(),
				reconcile.WithSeeds(seeds),
				reconcile.WithIterations(iterations))
			ref, err := reconcile.New(g1, g2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(want.NewPairs) == 0 {
				t.Fatal("reference run found nothing; instance too weak")
			}

			// The victim checkpoints at every bucket boundary: one full,
			// then deltas (cmd/serve writes fulls every K checkpoints; every
			// cut below exercises a full→delta…delta prefix either way).
			var chain []chainRecord
			var ckpt reconcile.Checkpointer
			var victim *reconcile.Reconciler
			victim, err = reconcile.New(g1, g2, append(opts,
				reconcile.WithProgress(func(reconcile.PhaseEvent) {
					var rec chainRecord
					var buf bytes.Buffer
					if len(chain) == 0 {
						rec.full = true
						if err := ckpt.WriteFull(&buf, victim); err != nil {
							t.Errorf("full checkpoint: %v", err)
							return
						}
					} else if err := ckpt.WriteDelta(&buf, victim); errors.Is(err, reconcile.ErrFullRequired) {
						// The hybrid handoff just landed; re-anchor the chain.
						rec.full = true
						buf.Reset()
						if err := ckpt.WriteFull(&buf, victim); err != nil {
							t.Errorf("re-anchor full checkpoint %d: %v", len(chain), err)
							return
						}
					} else if err != nil {
						t.Errorf("delta checkpoint %d: %v", len(chain), err)
						return
					}
					rec.data = append([]byte(nil), buf.Bytes()...)
					var mono bytes.Buffer
					if err := victim.SnapshotState(&mono); err != nil {
						t.Errorf("monolithic checkpoint: %v", err)
						return
					}
					rec.monolithic = mono.Bytes()
					chain = append(chain, rec)
				}))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := victim.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(chain) != len(want.Phases) {
				t.Fatalf("victim checkpointed %d times, want one per phase (%d)", len(chain), len(want.Phases))
			}

			// The hybrid chain must actually contain the re-anchoring full —
			// otherwise the schedule never crossed the handoff and the row
			// proves nothing extra.
			anchor := func(cut int) int {
				for i := cut; i > 0; i-- {
					if chain[i].full {
						return i
					}
				}
				return 0
			}
			if ec.engine == reconcile.EngineHybrid && anchor(len(chain)-1) == 0 {
				t.Fatal("hybrid chain has no mid-chain full; the handoff never fired")
			}

			for _, cut := range []int{0, 1, len(chain) / 2, len(chain) - 1} {
				// "New process": replay from the last full at or before the
				// cut, from bytes alone.
				base := anchor(cut)
				st, err := reconcile.ReadSessionState(bytes.NewReader(chain[base].data))
				if err != nil {
					t.Fatalf("cut %d: read full %d: %v", cut, base, err)
				}
				for i := base + 1; i <= cut; i++ {
					d, err := reconcile.ReadStateDelta(bytes.NewReader(chain[i].data))
					if err != nil {
						t.Fatalf("cut %d: read delta %d: %v", cut, i, err)
					}
					if err := st.Apply(d); err != nil {
						t.Fatalf("cut %d: apply delta %d: %v", cut, i, err)
					}
				}
				restored, err := reconcile.RestoreSessionState(g1, g2, st)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				// Bit-identity of the replayed state: re-snapshotting it
				// yields the exact bytes of the monolithic snapshot taken at
				// the same boundary.
				var again bytes.Buffer
				if err := restored.SnapshotState(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), chain[cut].monolithic) {
					t.Fatalf("cut %d: replayed state differs from the monolithic snapshot", cut)
				}
				// And the resumed run finishes bit-identically.
				got, err := restored.Resume(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("cut %d: chain-restored run diverged: %d pairs / %d phases, want %d / %d",
						cut, len(got.Pairs), len(got.Phases), len(want.Pairs), len(want.Phases))
				}
			}

			// A delta applied out of order is refused, not replayed wrongly.
			if len(chain) > 2 && !chain[2].full {
				st, err := reconcile.ReadSessionState(bytes.NewReader(chain[0].data))
				if err != nil {
					t.Fatal(err)
				}
				d, err := reconcile.ReadStateDelta(bytes.NewReader(chain[2].data))
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Apply(d); err == nil {
					t.Fatal("delta 2 applied directly onto the full snapshot (gap undetected)")
				}
			}
		})
	}
}

// TestCheckpointerFullRequired pins the fallback contract: the first write
// must be a full, and a fresh Checkpointer says so with ErrFullRequired.
func TestCheckpointerFullRequired(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt reconcile.Checkpointer
	var buf bytes.Buffer
	if err := ckpt.WriteDelta(&buf, rec); !errors.Is(err, reconcile.ErrFullRequired) {
		t.Fatalf("WriteDelta without a base: err = %v, want ErrFullRequired", err)
	}
	if buf.Len() != 0 {
		t.Fatal("failed WriteDelta wrote bytes")
	}
	if err := ckpt.WriteFull(&buf, rec); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ckpt.WriteDelta(&buf, rec); err != nil {
		t.Fatalf("WriteDelta after a full: %v", err)
	}
}

// TestDeltaCheckpointSizeRatio pins the tentpole's economics on the
// incremental benchmark workload (a converged 10k-node frontier session
// ingesting 20 fresh seeds and re-sweeping): the per-sweep delta checkpoint
// must be at least 5x smaller than the full state snapshot it replaces.
func TestDeltaCheckpointSizeRatio(t *testing.T) {
	r := reconcile.NewRand(99)
	g := reconcile.GeneratePA(r, 10000, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.5, 0.5)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(10000), 0.10)
	hold := 20
	early, late := seeds[:len(seeds)-hold], seeds[len(seeds)-hold:]

	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(early))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	matchedL := map[reconcile.NodeID]bool{}
	matchedR := map[reconcile.NodeID]bool{}
	for _, p := range rec.Result().Pairs {
		matchedL[p.Left] = true
		matchedR[p.Right] = true
	}
	var fresh []reconcile.Pair
	for _, p := range late {
		if !matchedL[p.Left] && !matchedR[p.Right] {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("no fresh seeds survive; instance too saturated")
	}

	var ckpt reconcile.Checkpointer
	var full bytes.Buffer
	if err := ckpt.WriteFull(&full, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.AddSeeds(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := ckpt.WriteDelta(&delta, rec); err != nil {
		t.Fatal(err)
	}
	var fullAfter bytes.Buffer
	if err := rec.SnapshotState(&fullAfter); err != nil {
		t.Fatal(err)
	}
	if delta.Len() == 0 || fullAfter.Len() == 0 {
		t.Fatal("empty checkpoint bytes")
	}
	if ratio := float64(fullAfter.Len()) / float64(delta.Len()); ratio < 5 {
		t.Fatalf("delta checkpoint only %.1fx smaller than full (%d vs %d bytes), want >= 5x",
			ratio, delta.Len(), fullAfter.Len())
	} else {
		t.Logf("delta %d bytes vs full %d bytes: %.0fx smaller", delta.Len(), fullAfter.Len(), ratio)
	}
}
