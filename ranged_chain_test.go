package reconcile_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile"
)

// rangedRecord is one ranged checkpoint of a victim run: the manifest, the
// per-range shard records (fulls or deltas), and the monolithic state
// snapshot of the same moment for the bit-identity comparison.
type rangedRecord struct {
	full       bool
	manifest   []byte
	parts      [][]byte
	monolithic []byte
}

// rangedChain checkpoints a victim run at every bucket boundary with a
// RangedCheckpointer of the given shard count and returns the chain.
func rangedChain(t *testing.T, g1, g2 *reconcile.Graph, ranges int, opts []reconcile.Option) []rangedRecord {
	t.Helper()
	var chain []rangedRecord
	rckpt := reconcile.NewRangedCheckpointer(ranges)
	var victim *reconcile.Reconciler
	victim, err := reconcile.New(g1, g2, append(opts,
		reconcile.WithProgress(func(reconcile.PhaseEvent) {
			ck, err := rckpt.Prepare(victim, len(chain) == 0)
			if errors.Is(err, reconcile.ErrFullRequired) {
				// The hybrid handoff just landed; re-anchor the chain.
				ck, err = rckpt.Prepare(victim, true)
			}
			if err != nil {
				t.Errorf("prepare checkpoint %d: %v", len(chain), err)
				return
			}
			rec := rangedRecord{full: ck.Full(), parts: make([][]byte, ck.Ranges())}
			var buf bytes.Buffer
			if err := ck.EncodeManifest(&buf); err != nil {
				t.Errorf("encode manifest %d: %v", len(chain), err)
				return
			}
			rec.manifest = append([]byte(nil), buf.Bytes()...)
			for j := 0; j < ck.Ranges(); j++ {
				buf.Reset()
				if err := ck.EncodePart(j, &buf); err != nil {
					t.Errorf("encode part %d of checkpoint %d: %v", j, len(chain), err)
					return
				}
				rec.parts[j] = append([]byte(nil), buf.Bytes()...)
			}
			rckpt.Commit(ck)
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
	return chain
}

// replayRanged reconstructs the state at chain[cut] from bytes alone: decode
// the last full's manifest and shards, apply each later checkpoint's shard
// deltas, and merge under the cut's manifest.
func replayRanged(t *testing.T, chain []rangedRecord, cut int) *reconcile.SessionState {
	t.Helper()
	base := cut
	for base > 0 && !chain[base].full {
		base--
	}
	man, err := reconcile.ReadRangeManifest(bytes.NewReader(chain[base].manifest))
	if err != nil {
		t.Fatalf("cut %d: read manifest %d: %v", cut, base, err)
	}
	parts := make([]*reconcile.SessionState, man.Ranges())
	for j := range parts {
		if parts[j], err = reconcile.ReadSessionState(bytes.NewReader(chain[base].parts[j])); err != nil {
			t.Fatalf("cut %d: read part %d of full %d: %v", cut, j, base, err)
		}
	}
	for i := base + 1; i <= cut; i++ {
		for j := range parts {
			d, err := reconcile.ReadStateDelta(bytes.NewReader(chain[i].parts[j]))
			if err != nil {
				t.Fatalf("cut %d: read delta part %d of checkpoint %d: %v", cut, j, i, err)
			}
			if err := parts[j].Apply(d); err != nil {
				t.Fatalf("cut %d: apply delta part %d of checkpoint %d: %v", cut, j, i, err)
			}
		}
		if man, err = reconcile.ReadRangeManifest(bytes.NewReader(chain[i].manifest)); err != nil {
			t.Fatalf("cut %d: read manifest %d: %v", cut, i, err)
		}
	}
	st, err := reconcile.MergeRangeParts(man, parts)
	if err != nil {
		t.Fatalf("cut %d: merge: %v", cut, err)
	}
	return st
}

// TestRangedChainResumeEquivalence extends the chain resume-equivalence
// guarantee to per-range shards: a run checkpointed as (manifest + R shard
// records) per boundary, cut at any checkpoint, shard-replayed, merged and
// resumed finishes bit-identically to the run that was never interrupted —
// and the merged state is byte-identical to the monolithic snapshot of the
// same boundary, so ranged and monolithic chains restore the same moment.
func TestRangedChainResumeEquivalence(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	for _, engine := range []reconcile.Engine{reconcile.EngineFrontier, reconcile.EngineParallel, reconcile.EngineHybrid} {
		t.Run(engine.String(), func(t *testing.T) {
			iterations := 3
			if engine == reconcile.EngineHybrid {
				iterations = 8 // commits decay to zero and the handoff fires mid-chain
			}
			opts := []reconcile.Option{
				reconcile.WithSeeds(seeds),
				reconcile.WithEngine(engine),
				reconcile.WithIterations(iterations),
			}
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

			// One range is the geometry every default-flag job uses: its
			// merge adopts the single shard's slices instead of copying them.
			for _, ranges := range []int{1, 3} {
				t.Run(fmt.Sprintf("ranges=%d", ranges), func(t *testing.T) {
					chain := rangedChain(t, g1, g2, ranges, opts)
					if len(chain) != len(want.Phases) {
						t.Fatalf("victim checkpointed %d times, want one per phase (%d)", len(chain), len(want.Phases))
					}
					if engine == reconcile.EngineHybrid {
						anchored := false
						for _, rec := range chain[1:] {
							anchored = anchored || rec.full
						}
						if !anchored {
							t.Fatal("hybrid chain has no mid-chain full; the handoff never fired")
						}
					}

					for _, cut := range []int{0, 1, len(chain) / 2, len(chain) - 1} {
						st := replayRanged(t, chain, cut)
						restored, err := reconcile.RestoreSessionState(g1, g2, st)
						if err != nil {
							t.Fatalf("cut %d: restore: %v", cut, err)
						}
						var again bytes.Buffer
						if err := restored.SnapshotState(&again); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(again.Bytes(), chain[cut].monolithic) {
							t.Fatalf("cut %d: merged state differs from the monolithic snapshot", cut)
						}
						got, err := restored.Resume(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("cut %d: ranged-restored run diverged: %d pairs / %d phases, want %d / %d",
								cut, len(got.Pairs), len(got.Phases), len(want.Pairs), len(want.Phases))
						}
					}

					// Shards from one checkpoint do not merge under another
					// checkpoint's manifest: a torn ranged checkpoint is refused.
					if len(chain) > 1 {
						man, err := reconcile.ReadRangeManifest(bytes.NewReader(chain[len(chain)-1].manifest))
						if err != nil {
							t.Fatal(err)
						}
						parts := make([]*reconcile.SessionState, man.Ranges())
						for j := range parts {
							if parts[j], err = reconcile.ReadSessionState(bytes.NewReader(chain[0].parts[j])); err != nil {
								t.Fatal(err)
							}
						}
						if _, err := reconcile.MergeRangeParts(man, parts); err == nil {
							t.Fatal("merged checkpoint-0 shards under the final manifest (tear undetected)")
						}
					}
				})
			}
		})
	}
}

// TestRangedCheckpointerContract pins the edges of the ranged API: a fresh
// checkpointer demands a full first, the shard count is clamped and fixed,
// and StateRangeCount scales with graph size under its cap.
func TestRangedCheckpointerContract(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	rckpt := reconcile.NewRangedCheckpointer(3)
	if _, err := rckpt.Prepare(rec, false); !errors.Is(err, reconcile.ErrFullRequired) {
		t.Fatalf("Prepare(delta) without a base: err = %v, want ErrFullRequired", err)
	}
	ck, err := rckpt.Prepare(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Full() || ck.Ranges() != 3 {
		t.Fatalf("full checkpoint: Full=%v Ranges=%d, want true/3", ck.Full(), ck.Ranges())
	}
	rckpt.Commit(ck)
	if _, err := rckpt.Prepare(rec, false); err != nil {
		t.Fatalf("Prepare(delta) after a committed full: %v", err)
	}
	rckpt.Reset()
	if _, err := rckpt.Prepare(rec, false); !errors.Is(err, reconcile.ErrFullRequired) {
		t.Fatalf("Prepare(delta) after Reset: err = %v, want ErrFullRequired", err)
	}

	if got := reconcile.NewRangedCheckpointer(0).Ranges(); got != 1 {
		t.Fatalf("ranges clamp low: %d, want 1", got)
	}
	if got := reconcile.NewRangedCheckpointer(10_000).Ranges(); got != reconcile.MaxStateRanges {
		t.Fatalf("ranges clamp high: %d, want %d", got, reconcile.MaxStateRanges)
	}
	for _, tc := range []struct{ n1, n2, target, want int }{
		{600, 600, 0, 1},       // disabled
		{600, 600, 1 << 20, 1}, // small job, one range
		{600, 600, 400, 3},
		{1 << 20, 1 << 20, 1, reconcile.MaxStateRanges}, // capped
	} {
		if got := reconcile.StateRangeCount(tc.n1, tc.n2, tc.target); got != tc.want {
			t.Fatalf("StateRangeCount(%d, %d, %d) = %d, want %d", tc.n1, tc.n2, tc.target, got, tc.want)
		}
	}
}

// graphFiles writes g1/g2 to dir in the given format and returns the paths.
func graphFiles(t *testing.T, dir, tag string, g1, g2 *reconcile.Graph, mappable bool) (string, string) {
	t.Helper()
	write := func(name string, g *reconcile.Graph) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var werr error
		if mappable {
			werr = reconcile.WriteGraphMapped(f, g)
		} else {
			werr = reconcile.WriteGraphBinary(f, g)
		}
		if werr != nil {
			t.Fatal(werr)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("g1."+tag, g1), write("g2."+tag, g2)
}

// graphBytes returns g's canonical legacy encoding, the equality yardstick
// across formats and backings.
func graphBytes(t *testing.T, g *reconcile.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reconcile.WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMappedRangedRestoreMatrix is the acceptance matrix for this PR's
// tentpole: a mid-run checkpoint restores and resumes bit-identically under
// every combination of graph backing (mmap-served mappable file, heap-decoded
// mappable file, heap-decoded legacy file, mmap-API-opened legacy file) and
// chain form (monolithic state snapshot, ranged manifest + shards). One
// reference run on the original in-memory graphs anchors every cell.
func TestMappedRangedRestoreMatrix(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	opts := []reconcile.Option{reconcile.WithSeeds(seeds), reconcile.WithIterations(3)}

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
	chain := rangedChain(t, g1, g2, 4, opts)
	cut := len(chain) / 2
	wantG1, wantG2 := graphBytes(t, g1), graphBytes(t, g2)

	dir := t.TempDir()
	m1, m2 := graphFiles(t, dir, "rgmm", g1, g2, true)
	l1, l2 := graphFiles(t, dir, "legacy", g1, g2, false)

	backings := []struct {
		name       string
		p1, p2     string
		mapped     bool // load through OpenGraphMapped
		wantMapped bool // and expect a live mapping
	}{
		{"mapped-mappable", m1, m2, true, reconcile.MmapSupported},
		{"mapped-legacy", l1, l2, true, false},
		{"heap-mappable", m1, m2, false, false},
		{"heap-legacy", l1, l2, false, false},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			var lg1, lg2 *reconcile.Graph
			if b.mapped {
				mg1, err := reconcile.OpenGraphMapped(b.p1)
				if err != nil {
					t.Fatal(err)
				}
				defer mg1.Close()
				mg2, err := reconcile.OpenGraphMapped(b.p2)
				if err != nil {
					t.Fatal(err)
				}
				defer mg2.Close()
				if mg1.Mapped() != b.wantMapped {
					t.Fatalf("Mapped() = %v, want %v", mg1.Mapped(), b.wantMapped)
				}
				if lg1, err = mg1.Acquire(); err != nil {
					t.Fatal(err)
				}
				defer mg1.Release()
				if lg2, err = mg2.Acquire(); err != nil {
					t.Fatal(err)
				}
				defer mg2.Release()
			} else {
				for _, load := range []struct {
					path string
					into **reconcile.Graph
				}{{b.p1, &lg1}, {b.p2, &lg2}} {
					f, err := os.Open(load.path)
					if err != nil {
						t.Fatal(err)
					}
					*load.into, err = reconcile.ReadGraphBinary(f)
					f.Close()
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if !bytes.Equal(graphBytes(t, lg1), wantG1) || !bytes.Equal(graphBytes(t, lg2), wantG2) {
				t.Fatal("loaded graphs are not bit-identical to the originals")
			}

			for _, ranged := range []bool{false, true} {
				var st *reconcile.SessionState
				if ranged {
					st = replayRanged(t, chain, cut)
				} else {
					var err error
					if st, err = reconcile.ReadSessionState(bytes.NewReader(chain[cut].monolithic)); err != nil {
						t.Fatal(err)
					}
				}
				restored, err := reconcile.RestoreSessionState(lg1, lg2, st)
				if err != nil {
					t.Fatalf("ranged=%v: restore: %v", ranged, err)
				}
				got, err := restored.Resume(context.Background())
				if err != nil {
					t.Fatalf("ranged=%v: resume: %v", ranged, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("ranged=%v: resumed run diverged from the reference", ranged)
				}
			}
		})
	}
}

// TestGraphFormatInterop pins the two-way format bridge: ReadGraphBinary
// sniffs and decodes the mappable container, OpenGraphMapped serves legacy
// files from the heap, and a clone of a mapped graph written back in either
// format reproduces the original bytes.
func TestGraphFormatInterop(t *testing.T) {
	g1, _, _ := snapshotInstance(t)
	legacy := graphBytes(t, g1)

	var mapped bytes.Buffer
	if err := reconcile.WriteGraphMapped(&mapped, g1); err != nil {
		t.Fatal(err)
	}
	back, err := reconcile.ReadGraphBinary(bytes.NewReader(mapped.Bytes()))
	if err != nil {
		t.Fatalf("ReadGraphBinary on a mappable stream: %v", err)
	}
	if !bytes.Equal(graphBytes(t, back), legacy) {
		t.Fatal("mappable container round-trip lost bits")
	}

	// Truncated mappable input is rejected by the sniffing reader too.
	if _, err := reconcile.ReadGraphBinary(bytes.NewReader(mapped.Bytes()[:mapped.Len()-3])); err == nil {
		t.Fatal("accepted a truncated mappable stream")
	}

	// OpenGraphMapped on a legacy file: heap-backed, same graph, and the
	// lifetime protocol still applies.
	path := filepath.Join(t.TempDir(), "legacy.g")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	mg, err := reconcile.OpenGraphMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Mapped() {
		t.Fatal("legacy file reported as mapped")
	}
	g, err := mg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphBytes(t, g), legacy) {
		t.Fatal("legacy file through OpenGraphMapped lost bits")
	}
	mg.Release()
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Acquire(); !errors.Is(err, reconcile.ErrGraphClosed) {
		t.Fatalf("Acquire after Close: err = %v, want ErrGraphClosed", err)
	}
	if mg.Graph() != nil {
		t.Fatal("Graph() non-nil after Close")
	}
}
