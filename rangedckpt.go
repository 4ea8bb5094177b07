package reconcile

import (
	"errors"
	"fmt"
	"io"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/snapshot"
)

// Ranged checkpointing: a single huge job's checkpoint is one serial encode
// and one serial replay however many cores the store has. A
// RangedCheckpointer splits the session state into per-node-range shards —
// each a well-formed state carried by the existing full/delta codec — plus
// one small manifest record holding everything global, so a store can
// encode and fsync the shards in parallel and commit the checkpoint by
// writing the manifest last. Restoring (manifest + shards), with deltas
// replayed per shard, merges back to the identical state; the
// kill-anywhere/resume-bit-identically guarantee holds for every shard
// count, one included (pinned by the ranged resume-equivalence suite).
// cmd/serve stores every checkpoint this way: ranges 1..R-1 in shard files,
// then one commit file holding the manifest followed by range 0, so a
// one-range checkpoint is a single file.

// MaxStateRanges is the largest shard count a ranged checkpoint may use.
const MaxStateRanges = core.MaxStateRanges

// StateRangeCount returns the shard count for a graph pair:
// ceil((n1+n2)/targetNodes) clamped to [1, MaxStateRanges]; non-positive
// targetNodes disables sharding (returns 1). A count of 1 is a one-range
// checkpoint: a manifest and one shard, which MergeRangeParts reassembles
// without copying.
func StateRangeCount(n1, n2, targetNodes int) int {
	return core.RangeCount(n1, n2, targetNodes)
}

// RangeManifest is a decoded manifest record: the global half of a ranged
// checkpoint, binding its shards together.
type RangeManifest struct {
	m *core.RangeManifest
}

// Ranges returns the shard count the manifest's checkpoint was written
// with.
func (m *RangeManifest) Ranges() int { return m.m.Ranges }

// ReadRangeManifest reads a manifest record written by
// RangedCheckpoint.EncodeManifest.
func ReadRangeManifest(r io.Reader) (*RangeManifest, error) {
	man, err := snapshot.ReadManifest(r)
	if err != nil {
		return nil, err
	}
	return &RangeManifest{m: man}, nil
}

// MergeRangeParts reassembles the session state from a manifest and its
// shard states (fulls, or fulls advanced by per-shard deltas via Apply).
// The shards are cross-checked against the manifest — geometry, repeated
// fingerprints, totals — so a torn or mixed checkpoint fails cleanly here
// rather than restoring something subtly wrong. With one shard the merged
// state shares that shard's slices instead of copying them, which is safe
// because Apply never modifies a state in place.
func MergeRangeParts(man *RangeManifest, parts []*SessionState) (*SessionState, error) {
	if man == nil {
		return nil, errors.New("reconcile: merge: nil manifest")
	}
	sts := make([]*core.SessionState, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("reconcile: merge: nil shard %d", i)
		}
		sts[i] = p.st
	}
	merged, err := core.MergeStateRanges(man.m, sts)
	if err != nil {
		return nil, err
	}
	return &SessionState{st: merged}, nil
}

// A RangedCheckpointer writes a checkpoint chain sharded into a fixed
// number of node ranges. Each checkpoint is prepared as one unit (Prepare),
// encoded to the caller's writers in any order or in parallel (EncodePart,
// EncodeManifest), and committed (Commit) once every write durably landed —
// the same ownership-of-durability contract as Checkpointer, extended to a
// multi-file checkpoint. Drive it between runs or from a progress hook,
// never concurrently with a run.
type RangedCheckpointer struct {
	ranges int
	bases  []*core.SessionState
}

// NewRangedCheckpointer returns a checkpointer writing chains of the given
// shard count, clamped to [1, MaxStateRanges]. The count is fixed for the
// life of the chain: recovery must merge with the same geometry the chain
// was written with.
func NewRangedCheckpointer(ranges int) *RangedCheckpointer {
	if ranges < 1 {
		ranges = 1
	}
	if ranges > MaxStateRanges {
		ranges = MaxStateRanges
	}
	return &RangedCheckpointer{ranges: ranges}
}

// Ranges returns the fixed shard count.
func (c *RangedCheckpointer) Ranges() int { return c.ranges }

// Reset drops the delta base: the next Prepare must be a full. Call it
// after a failed or discarded write, exactly like starting a new
// Checkpointer chain.
func (c *RangedCheckpointer) Reset() { c.bases = nil }

// A RangedCheckpoint is one prepared checkpoint: a manifest plus Ranges()
// shard records, all frozen from a single ExportState and safe to encode
// from any goroutine until Commit or abandonment.
type RangedCheckpoint struct {
	full   bool
	man    *core.RangeManifest
	parts  []*core.SessionState
	deltas []*core.StateDelta
}

// Full reports whether the shards are full state records (true) or delta
// records against the previous committed checkpoint (false).
func (ck *RangedCheckpoint) Full() bool { return ck.full }

// Ranges returns the checkpoint's shard count.
func (ck *RangedCheckpoint) Ranges() int { return len(ck.parts) }

// EncodeManifest writes the manifest record. Stores make it durable after
// every other shard landed — alone, or at the head of one file followed by
// shard 0 — so its durable presence is the checkpoint's commit point.
func (ck *RangedCheckpoint) EncodeManifest(w io.Writer) error {
	return snapshot.WriteManifest(w, ck.man)
}

// EncodePart writes shard i — a state record when Full, a delta record
// otherwise. Parts may be encoded concurrently (each to its own writer).
func (ck *RangedCheckpoint) EncodePart(i int, w io.Writer) error {
	if i < 0 || i >= len(ck.parts) {
		return fmt.Errorf("reconcile: ranged checkpoint has no part %d (ranges %d)", i, len(ck.parts))
	}
	if ck.full {
		return snapshot.WriteState(w, ck.parts[i])
	}
	return snapshot.WriteDelta(w, ck.deltas[i])
}

// Prepare exports the Reconciler's state and splits it into the next
// checkpoint of the chain. With wantFull false it prepares per-shard deltas
// against the previous committed checkpoint, freezing the pair-log cut at
// the base geometry so every shard diffs as a pure prefix; if there is no
// base, or any shard is not delta-expressible (seed ingestion, engine
// switch), nothing is prepared and ErrFullRequired says to retry with
// wantFull true.
func (c *RangedCheckpointer) Prepare(r *Reconciler, wantFull bool) (*RangedCheckpoint, error) {
	st := r.sess.ExportState()
	if wantFull {
		man, parts, err := core.SplitStateRanges(st, c.ranges, nil)
		if err != nil {
			return nil, err
		}
		return &RangedCheckpoint{full: true, man: man, parts: parts}, nil
	}
	if c.bases == nil {
		return nil, ErrFullRequired
	}
	man, parts, err := core.SplitStateRanges(st, c.ranges, core.PairChunkStarts(c.bases))
	if err != nil {
		// A frozen cut that no longer fits the state means the session
		// moved somewhere deltas do not express; restart the chain.
		return nil, fmt.Errorf("%w: %v", ErrFullRequired, err)
	}
	deltas := make([]*core.StateDelta, c.ranges)
	for i := range parts {
		d, err := core.DiffStates(c.bases[i], parts[i])
		if err != nil {
			if errors.Is(err, core.ErrNotDiffable) {
				return nil, fmt.Errorf("%w: %v", ErrFullRequired, err)
			}
			return nil, err
		}
		deltas[i] = d
	}
	return &RangedCheckpoint{man: man, parts: parts, deltas: deltas}, nil
}

// Commit makes ck the base the next delta Prepare diffs against. Call it
// only after every shard and the manifest durably landed; on any failure,
// abandon ck (and Reset if a previous base may now be ahead of disk).
func (c *RangedCheckpointer) Commit(ck *RangedCheckpoint) {
	c.bases = ck.parts
}

// Clone returns an independent copy of the state value: Apply on the clone
// leaves the original untouched. Recovery paths use it to replay a delta
// set all-or-nothing — advance copies, keep the originals if any shard's
// record turns out torn.
func (s *SessionState) Clone() *SessionState {
	st := *s.st
	return &SessionState{st: &st}
}
