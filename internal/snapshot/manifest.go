package snapshot

import (
	"fmt"
	"io"
	"math"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// Range-manifest records: the global half of a per-node-range checkpoint.
// The per-range shards are ordinary kindState / kindDelta records encoded
// with the existing codec; the manifest carries the shard geometry, the
// whole-checkpoint scalars, the bounded phase log, and the frontier
// worklists — everything core.MergeStateRanges needs to prove a shard set
// belongs together and reassemble it. Stores write the manifest last: its
// presence is the commit point of a ranged checkpoint.

// WriteManifest writes a range manifest as a framed record.
func WriteManifest(w io.Writer, man *core.RangeManifest) error {
	return write(w, kindManifest, func(ew *writer) error { return encodeManifest(ew, man) })
}

// ReadManifest reads a range manifest written by WriteManifest.
func ReadManifest(r io.Reader) (*core.RangeManifest, error) {
	var man *core.RangeManifest
	err := read(r, kindManifest, func(er *reader) error {
		var derr error
		man, derr = decodeManifest(er)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return man, nil
}

// encodeManifest writes the manifest payload.
func encodeManifest(w *writer, man *core.RangeManifest) error {
	for _, f := range []struct {
		v    int
		what string
	}{
		{man.Ranges, "range count"},
		{man.NLevels, "frontier levels"},
		{man.N1, "n1"},
		{man.N2, "n2"},
		{man.TotalPairs, "pair total"},
		{man.Seeds, "seed count"},
		{man.Sweeps, "sweep count"},
		{man.NextBucket, "bucket position"},
		{man.PhasesDropped, "evicted phase count"},
		{man.DroppedMatched, "evicted match count"},
	} {
		if err := w.uint(f.v, f.what); err != nil {
			return err
		}
	}
	hybrid := byte(0)
	if man.HybridFrontier {
		hybrid = 1
	}
	if err := w.byte(hybrid); err != nil {
		return err
	}

	if err := w.uint(len(man.Phases), "phase count"); err != nil {
		return err
	}
	for _, ph := range man.Phases {
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

	if man.Frontier == nil {
		return w.byte(0)
	}
	if err := w.byte(1); err != nil {
		return err
	}
	fr := man.Frontier
	if fr.Rescored < 0 {
		return fmt.Errorf("snapshot: encode: negative frontier work counter %d", fr.Rescored)
	}
	if err := w.uvarint(uint64(fr.Rescored)); err != nil {
		return err
	}
	for _, dirty := range [][]graph.NodeID{fr.DirtyLeft, fr.DirtyRight} {
		if err := w.uint(len(dirty), "manifest worklist length"); err != nil {
			return err
		}
		if err := writeU32s(w, len(dirty), func(i int) uint32 { return uint32(dirty[i]) }); err != nil {
			return err
		}
	}
	return nil
}

// decodeManifest reads the manifest payload. Structural bounds are checked
// here; core.MergeStateRanges proves the geometry against the shard set
// before any of it is trusted.
func decodeManifest(r *reader) (*core.RangeManifest, error) {
	man := &core.RangeManifest{}
	var err error
	for _, f := range []struct {
		dst  *int
		what string
	}{
		{&man.Ranges, "range count"},
		{&man.NLevels, "frontier levels"},
		{&man.N1, "n1"},
		{&man.N2, "n2"},
		{&man.TotalPairs, "pair total"},
		{&man.Seeds, "seed count"},
		{&man.Sweeps, "sweep count"},
		{&man.NextBucket, "bucket position"},
		{&man.PhasesDropped, "evicted phase count"},
		{&man.DroppedMatched, "evicted match count"},
	} {
		if *f.dst, err = r.uint(f.what); err != nil {
			return nil, err
		}
	}
	hybrid, err := r.byte("hybrid regime flag")
	if err != nil {
		return nil, err
	}
	if hybrid > 1 {
		return nil, fmt.Errorf("snapshot: decode hybrid regime flag: bad value %d", hybrid)
	}
	man.HybridFrontier = hybrid == 1

	nPhases, err := r.uint("phase count")
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
		man.Phases = append(man.Phases, ph)
	}

	hasFrontier, err := r.byte("frontier flag")
	if err != nil {
		return nil, err
	}
	switch hasFrontier {
	case 0:
		return man, nil
	case 1:
	default:
		return nil, fmt.Errorf("snapshot: decode frontier flag: bad value %d", hasFrontier)
	}
	fr := &core.ManifestFrontier{}
	rescored, err := r.uvarint("frontier work counter")
	if err != nil {
		return nil, err
	}
	if rescored > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot: decode frontier work counter: value %d out of range", rescored)
	}
	fr.Rescored = int64(rescored)
	for _, dst := range []*[]graph.NodeID{&fr.DirtyLeft, &fr.DirtyRight} {
		dirtyLen, err := r.uint("manifest worklist length")
		if err != nil {
			return nil, err
		}
		if *dst, err = appendU32s[graph.NodeID](r, uint64(dirtyLen), "manifest worklist"); err != nil {
			return nil, err
		}
	}
	man.Frontier = fr
	return man, nil
}
