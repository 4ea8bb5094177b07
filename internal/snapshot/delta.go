package snapshot

import (
	"fmt"
	"io"
	"math"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// Delta records share the stream framing of every other snapshot kind —
// magic, version, kind byte, CRC32 trailer — and the same canonicality and
// defensive-decode rules: one byte stream per value (cache-edit indices are
// gap-encoded, so ascending order is structural), allocations bounded by
// bytes actually read, and corrupt or truncated input errors out, never
// panics. A delta is O(churn since the last checkpoint) on the wire, which
// is what makes per-sweep checkpoints cheap at paper scale; core.ApplyDelta
// replays it onto the base state bit-identically.

// WriteDelta writes a delta record (core.DiffStates output) as a framed
// stream.
func WriteDelta(w io.Writer, d *core.StateDelta) error {
	return write(w, kindDelta, func(ew *writer) error { return encodeDelta(ew, d) })
}

// ReadDelta reads a delta record written by WriteDelta.
func ReadDelta(r io.Reader) (*core.StateDelta, error) {
	var d *core.StateDelta
	err := read(r, kindDelta, func(er *reader) error {
		var derr error
		d, derr = decodeDelta(er)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// deltaPositions flattens the scalar position and phase-window fields into
// wire order, shared by encode and decode so the two cannot drift.
func deltaPositions(d *core.StateDelta) []struct {
	v    *int
	what string
} {
	return []struct {
		v    *int
		what string
	}{
		{&d.BasePairs, "base pair count"},
		{&d.BasePhases, "base phase count"},
		{&d.BaseSweeps, "base sweep count"},
		{&d.BaseNextBucket, "base bucket position"},
		{&d.Sweeps, "sweep count"},
		{&d.NextBucket, "bucket position"},
		{&d.BasePhasesDropped, "base evicted phase count"},
		{&d.PhasesDropped, "evicted phase count"},
		{&d.DroppedMatched, "evicted match count"},
	}
}

func encodeDelta(w *writer, d *core.StateDelta) error {
	for _, f := range deltaPositions(d) {
		if err := w.uint(*f.v, f.what); err != nil {
			return err
		}
	}
	hybrid := byte(0)
	if d.HybridFrontier {
		hybrid = 1
	}
	if err := w.byte(hybrid); err != nil {
		return err
	}
	if err := w.uint(len(d.NewPairs), "new pair count"); err != nil {
		return err
	}
	if err := writeU32s(w, 2*len(d.NewPairs), func(i int) uint32 {
		if i%2 == 0 {
			return uint32(d.NewPairs[i/2].Left)
		}
		return uint32(d.NewPairs[i/2].Right)
	}); err != nil {
		return err
	}
	if err := w.uint(len(d.NewPhases), "new phase count"); err != nil {
		return err
	}
	for _, ph := range d.NewPhases {
		for _, f := range []struct {
			v    int
			what string
		}{
			{ph.Iteration, "phase iteration"},
			{ph.MinDegree, "phase min degree"},
			{ph.Matched, "phase matched"},
			{ph.TotalL, "phase total"},
		} {
			if err := w.uint(f.v, f.what); err != nil {
				return err
			}
		}
	}

	if d.Frontier == nil {
		return w.byte(0)
	}
	if err := w.byte(1); err != nil {
		return err
	}
	fd := d.Frontier
	if fd.Rescored < 0 {
		return fmt.Errorf("snapshot: encode: negative frontier work counter %d", fd.Rescored)
	}
	if err := w.uvarint(uint64(fd.Rescored)); err != nil {
		return err
	}
	for _, side := range []*core.FrontierSideDelta{&fd.Left, &fd.Right} {
		if len(side.Index) != len(side.Node) || len(side.Index) != len(side.Score) {
			return fmt.Errorf("snapshot: encode: delta edit slices disagree (%d indices, %d nodes, %d scores)",
				len(side.Index), len(side.Node), len(side.Score))
		}
		if err := w.uint(len(side.Index), "cache edit count"); err != nil {
			return err
		}
		// Indices go out as gaps: the first as-is, each later one as the
		// distance to its predecessor. Ascending order is therefore a
		// structural property of the stream, and typical (clustered) edit
		// sets cost one or two bytes per index.
		prev := -1
		for _, idx := range side.Index {
			if idx <= prev {
				return fmt.Errorf("snapshot: encode: cache edit indices not ascending (%d after %d)", idx, prev)
			}
			if idx < 0 || idx > math.MaxInt32 {
				return fmt.Errorf("snapshot: encode: cache edit index %d out of range", idx)
			}
			gap := idx - prev
			if prev < 0 {
				gap = idx
			}
			if err := w.uvarint(uint64(gap)); err != nil {
				return err
			}
			prev = idx
		}
		if err := writeU32s(w, len(side.Node), func(i int) uint32 {
			return uint32(side.Node[i])
		}); err != nil {
			return err
		}
		for _, sc := range side.Score {
			if sc < 0 {
				return fmt.Errorf("snapshot: encode: negative proposal score %d", sc)
			}
		}
		if err := writeU32s(w, len(side.Score), func(i int) uint32 {
			return uint32(side.Score[i])
		}); err != nil {
			return err
		}
		if err := w.uint(len(side.Dirty), "delta worklist length"); err != nil {
			return err
		}
		if err := writeU32s(w, len(side.Dirty), func(i int) uint32 {
			return uint32(side.Dirty[i])
		}); err != nil {
			return err
		}
	}
	return nil
}

func decodeDelta(r *reader) (*core.StateDelta, error) {
	d := &core.StateDelta{}
	for _, f := range deltaPositions(d) {
		v, err := r.uint(f.what)
		if err != nil {
			return nil, err
		}
		*f.v = v
	}
	hybrid, err := r.byte("delta hybrid regime flag")
	if err != nil {
		return nil, err
	}
	if hybrid > 1 {
		return nil, fmt.Errorf("snapshot: decode delta hybrid regime flag: bad value %d", hybrid)
	}
	d.HybridFrontier = hybrid == 1
	nPairs, err := r.uint("new pair count")
	if err != nil {
		return nil, err
	}
	flat, err := appendU32s[graph.NodeID](r, 2*uint64(nPairs), "new pairs")
	if err != nil {
		return nil, err
	}
	if nPairs > 0 {
		d.NewPairs = make([]graph.Pair, nPairs)
		for i := range d.NewPairs {
			d.NewPairs[i] = graph.Pair{Left: flat[2*i], Right: flat[2*i+1]}
		}
	}
	nPhases, err := r.uint("new phase count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPhases; i++ {
		var ph core.PhaseStat
		for _, f := range []struct {
			dst  *int
			what string
		}{
			{&ph.Iteration, "phase iteration"},
			{&ph.MinDegree, "phase min degree"},
			{&ph.Matched, "phase matched"},
			{&ph.TotalL, "phase total"},
		} {
			if *f.dst, err = r.uint(f.what); err != nil {
				return nil, err
			}
		}
		d.NewPhases = append(d.NewPhases, ph)
	}

	hasFrontier, err := r.byte("delta frontier flag")
	if err != nil {
		return nil, err
	}
	switch hasFrontier {
	case 0:
		return d, nil
	case 1:
	default:
		return nil, fmt.Errorf("snapshot: decode delta frontier flag: bad value %d", hasFrontier)
	}
	fd := &core.FrontierDelta{}
	rescored, err := r.uvarint("frontier work counter")
	if err != nil {
		return nil, err
	}
	if rescored > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot: decode frontier work counter: value %d out of range", rescored)
	}
	fd.Rescored = int64(rescored)
	for _, side := range []*core.FrontierSideDelta{&fd.Left, &fd.Right} {
		nEdits, err := r.uint("cache edit count")
		if err != nil {
			return nil, err
		}
		prev := -1
		for i := 0; i < nEdits; i++ {
			gap, err := r.uvarint("cache edit gap")
			if err != nil {
				return nil, err
			}
			if gap > math.MaxInt32 {
				return nil, fmt.Errorf("snapshot: decode cache edit gap: gap %d out of range at edit %d", gap, i)
			}
			sum := gap
			if prev >= 0 {
				if gap == 0 {
					return nil, fmt.Errorf("snapshot: decode cache edit gap: zero gap at edit %d", i)
				}
				sum += uint64(prev)
			}
			// Indices fit int32 (the encoder enforces it), so the sum cannot
			// wrap and decode agrees with encode on every platform.
			if sum > math.MaxInt32 {
				return nil, fmt.Errorf("snapshot: decode cache edit gap: index overflow at edit %d", i)
			}
			idx := int(sum)
			side.Index = append(side.Index, idx)
			prev = idx
		}
		if side.Node, err = appendU32s[graph.NodeID](r, uint64(nEdits), "cache edit nodes"); err != nil {
			return nil, err
		}
		scores, err := appendU32s[uint32](r, uint64(nEdits), "cache edit scores")
		if err != nil {
			return nil, err
		}
		if nEdits > 0 {
			side.Score = make([]int32, nEdits)
			for i, v := range scores {
				if v > math.MaxInt32 {
					return nil, fmt.Errorf("snapshot: decode cache edit scores: score %d out of range", v)
				}
				side.Score[i] = int32(v)
			}
		}
		dirtyLen, err := r.uint("delta worklist length")
		if err != nil {
			return nil, err
		}
		if side.Dirty, err = appendU32s[graph.NodeID](r, uint64(dirtyLen), "delta worklist"); err != nil {
			return nil, err
		}
	}
	d.Frontier = fd
	return d, nil
}
