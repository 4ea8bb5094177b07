package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"time"

	"github.com/sociograph/reconcile"
)

// probe times the engine, codec and graph layers in process, through the
// root reconcile API, on the workload's own instances, while the server is
// idle. Values are means per instance (the bucket maximum is the largest
// over them).
func (r *run) probe(ctx context.Context, insts []*instance) error {
	var cold, bucketMax, incr, enc, dec, openMapped, decodeHeap float64
	var fullBytes, deltaBytes int64
	since := func(t time.Time) float64 { return time.Since(t).Seconds() }
	for _, inst := range insts {
		// Cold run, with the slowest bucket timed between progress events.
		var last time.Time
		slowest := 0.0
		rec, err := reconcile.New(inst.g1, inst.g2, reconcile.WithSeeds(inst.seeds),
			reconcile.WithProgress(func(reconcile.PhaseEvent) {
				now := time.Now()
				if d := now.Sub(last).Seconds(); d > slowest {
					slowest = d
				}
				last = now
			}))
		if err != nil {
			return err
		}
		start := time.Now()
		last = start
		if _, err := rec.RunUntilStable(ctx, inst.maxSweeps); err != nil {
			return err
		}
		cold += since(start)
		bucketMax = max(bucketMax, slowest)
		r.expect(samePairs(rec.Result().Pairs, inst.want), "probe: cold run differs from set-up")

		var ck reconcile.Checkpointer
		var full bytes.Buffer
		start = time.Now()
		if err := ck.WriteFull(&full, rec); err != nil {
			return err
		}
		enc += since(start)
		fullBytes += int64(full.Len())
		start = time.Now()
		_, err = reconcile.ReadSessionState(bytes.NewReader(full.Bytes()))
		dec += since(start)
		r.expect(err == nil, "probe: decoding a full checkpoint: %v", err)

		for _, st := range inst.steps {
			if st.conflict {
				continue
			}
			start = time.Now()
			if err := rec.AddSeeds(st.seeds); err != nil {
				return err
			}
			if _, err := rec.RunUntilStable(ctx, inst.maxSweeps); err != nil {
				return err
			}
			incr += since(start)
			r.expect(samePairs(rec.Result().Pairs, st.want), "probe: incremental run differs from set-up")
			var delta bytes.Buffer
			err := ck.WriteDelta(&delta, rec)
			if errors.Is(err, reconcile.ErrFullRequired) {
				// An engine handoff made the state not delta-expressible; the
				// service writes a full record then, and so does the probe.
				err = ck.WriteFull(&delta, rec)
			}
			if err != nil {
				return err
			}
			deltaBytes += int64(delta.Len())
			break
		}

		path := filepath.Join(r.dir, "probe.rgmm")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := reconcile.WriteGraphMapped(f, inst.g1); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		start = time.Now()
		mg, err := reconcile.OpenGraphMapped(path)
		openMapped += since(start)
		if err != nil {
			return err
		}
		if err := mg.Close(); err != nil {
			return err
		}
		var gb bytes.Buffer
		if err := reconcile.WriteGraphBinary(&gb, inst.g1); err != nil {
			return err
		}
		start = time.Now()
		_, err = reconcile.ReadGraphBinary(bytes.NewReader(gb.Bytes()))
		decodeHeap += since(start)
		if err != nil {
			return err
		}
	}
	k := float64(len(insts))
	r.layer["engine.probe_cold_s"] = cold / k
	r.layer["engine.probe_bucket_max_s"] = bucketMax
	r.layer["engine.probe_incr_s"] = incr / k
	r.layer["codec.full_bytes"] = float64(fullBytes) / k
	r.layer["codec.delta_bytes"] = float64(deltaBytes) / k
	r.layer["codec.encode_s"] = enc / k
	r.layer["codec.decode_s"] = dec / k
	r.layer["graph.probe_open_mapped_s"] = openMapped / k
	r.layer["graph.probe_decode_heap_s"] = decodeHeap / k
	r.work["codec"] = map[string]int64{"full_bytes": fullBytes, "delta_bytes": deltaBytes}
	return nil
}

func samePairs(a, b []reconcile.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
