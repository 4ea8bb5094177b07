package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// deltaEqual compares delta records treating nil and empty slices as equal.
func deltaEqual(a, b *core.StateDelta) bool {
	norm := func(d core.StateDelta) core.StateDelta {
		if len(d.NewPairs) == 0 {
			d.NewPairs = nil
		}
		if len(d.NewPhases) == 0 {
			d.NewPhases = nil
		}
		if d.Frontier != nil {
			fd := *d.Frontier
			for _, side := range []*core.FrontierSideDelta{&fd.Left, &fd.Right} {
				if len(side.Index) == 0 {
					side.Index = nil
				}
				if len(side.Node) == 0 {
					side.Node = nil
				}
				if len(side.Score) == 0 {
					side.Score = nil
				}
				if len(side.Dirty) == 0 {
					side.Dirty = nil
				}
			}
			d.Frontier = &fd
		}
		return d
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// TestDeltaRoundTrip drives the delta codec over real per-sweep churn on
// every engine: decode(encode(d)) == d on values and bytes, and the decoded
// delta replays onto the base to the exact target state.
func TestDeltaRoundTrip(t *testing.T) {
	for _, ec := range []engineCase{sequentialCase, parallelCase, frontierCase} {
		t.Run(ec.name, func(t *testing.T) {
			opts := ec.options()
			_, _, s := testSession(t, 42, 300, opts, 0)
			base := s.ExportState()
			for sweep := 0; sweep < 3; sweep++ {
				s.RunContext(t.Context(), 1)
				cur := s.ExportState()
				d, err := core.DiffStates(base, cur)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteDelta(&buf, d); err != nil {
					t.Fatalf("encode: %v", err)
				}
				data := buf.Bytes()
				rd, err := ReadDelta(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !deltaEqual(d, rd) {
					t.Fatal("decode(encode(delta)) != delta")
				}
				var again bytes.Buffer
				if err := WriteDelta(&again, rd); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, again.Bytes()) {
					t.Fatal("delta encoding is not canonical")
				}
				replayed, err := core.ApplyDelta(base, rd)
				if err != nil {
					t.Fatalf("apply decoded delta: %v", err)
				}
				if !stateEqual(cur, replayed) {
					t.Fatal("decoded delta replays to a different state")
				}
				base = cur
			}
		})
	}
}

// TestDeltaKindMismatch pins that delta records and state snapshots cannot
// be confused for one another: each reader refuses the other's stream.
func TestDeltaKindMismatch(t *testing.T) {
	opts := core.DefaultOptions()
	_, _, s := testSession(t, 7, 150, opts, 0)
	base := s.ExportState()
	s.RunContext(t.Context(), 1)
	d, err := core.DiffStates(base, s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var db, sb bytes.Buffer
	if err := WriteDelta(&db, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteState(&sb, base); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadState(bytes.NewReader(db.Bytes())); err == nil {
		t.Fatal("ReadState accepted a delta record")
	}
	if _, err := ReadDelta(bytes.NewReader(sb.Bytes())); err == nil {
		t.Fatal("ReadDelta accepted a state snapshot")
	}
}

// TestDeltaEncodeRejectsMalformed pins encoder-side validation: deltas that
// could not have come from DiffStates are refused before a byte is framed
// into a stream a decoder would then have to distrust.
func TestDeltaEncodeRejectsMalformed(t *testing.T) {
	mk := func() *core.StateDelta {
		return &core.StateDelta{
			Frontier: &core.FrontierDelta{
				Left: core.FrontierSideDelta{Index: []int{3, 7}, Node: []graph.NodeID{1, 2}, Score: []int32{4, 5}},
			},
		}
	}

	d := mk()
	d.Frontier.Left.Index = []int{7, 3}
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("non-ascending indices encoded")
	}

	d = mk()
	d.Frontier.Left.Node = d.Frontier.Left.Node[:1]
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("mismatched edit slices encoded")
	}

	d = mk()
	d.Frontier.Left.Score[0] = -1
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("negative score encoded")
	}

	d = mk()
	d.Frontier.Rescored = -1
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("negative work counter encoded")
	}

	d = mk()
	d.BasePairs = -1
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("negative base position encoded")
	}
}
