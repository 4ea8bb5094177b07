package main

import (
	"context"
	"fmt"
	"strconv"

	"github.com/sociograph/reconcile"
)

// instance is one reconciliation input with its request bodies and the
// links the library computes for it, all made during set-up.
type instance struct {
	n         int
	g1, g2    *reconcile.Graph
	seeds     []reconcile.Pair
	maxSweeps int    // untilStable sweep budget, as the server applies it
	body      []byte // POST .../jobs
	want      []reconcile.Pair
	steps     []step // seed batches sent after the cold run, in order
}

// step is one incremental seed batch and its expected outcome.
type step struct {
	seeds    []reconcile.Pair
	body     []byte // POST .../jobs/{id}/seeds
	conflict bool   // the service refuses it with 409 (a seed clashes with a link)
	want     []reconcile.Pair
}

// defaultMaxSweeps is the service's untilStable budget when a request
// names none.
const defaultMaxSweeps = 50

// newInstance builds the wire bodies for g1, g2 and seeds and computes the
// expected links with the library: New + RunUntilStable, then each batch
// through the same all-or-nothing conflict rule the service applies, then
// AddSeeds + RunUntilStable. batches, when not nil, picks the follow-up
// seed batches from the cold run's links. maxSweeps 0 leaves the service
// default.
func newInstance(ctx context.Context, g1, g2 *reconcile.Graph, seeds []reconcile.Pair, maxSweeps int, batches func(cold []reconcile.Pair) [][]reconcile.Pair) (*instance, error) {
	// The service rebuilds graphs from the wire edge list; do the same so
	// the library sees exactly the graphs the service does.
	e1, e2 := g1.EdgeSlice(), g2.EdgeSlice()
	inst := &instance{
		n:         g1.NumNodes(),
		g1:        reconcile.FromEdges(g1.NumNodes(), e1),
		g2:        reconcile.FromEdges(g2.NumNodes(), e2),
		seeds:     seeds,
		maxSweeps: maxSweeps,
	}
	inst.body = jobBody(g1.NumNodes(), e1, g2.NumNodes(), e2, seeds, maxSweeps)
	if inst.maxSweeps == 0 {
		inst.maxSweeps = defaultMaxSweeps
	}
	rec, err := reconcile.New(inst.g1, inst.g2, reconcile.WithSeeds(seeds))
	if err != nil {
		return nil, err
	}
	if _, err := rec.RunUntilStable(ctx, inst.maxSweeps); err != nil {
		return nil, err
	}
	inst.want = rec.Result().Pairs
	if batches == nil {
		return inst, nil
	}
	for _, batch := range batches(inst.want) {
		st := step{seeds: batch, body: seedsBody(batch), conflict: conflicts(rec.Result().Pairs, batch)}
		if !st.conflict {
			if err := rec.AddSeeds(batch); err != nil {
				return nil, fmt.Errorf("library AddSeeds: %w", err)
			}
			if _, err := rec.RunUntilStable(ctx, inst.maxSweeps); err != nil {
				return nil, err
			}
		}
		st.want = rec.Result().Pairs
		inst.steps = append(inst.steps, st)
	}
	return inst, nil
}

// final is the links the instance ends with after every step.
func (in *instance) final() []reconcile.Pair {
	if len(in.steps) == 0 {
		return in.want
	}
	return in.steps[len(in.steps)-1].want
}

// conflicts reports whether the service would refuse batch against the
// current links: a seed whose left or right node is already linked to a
// different partner, within the links or within the batch itself. Exact
// duplicates of existing links are ignored, as the service ignores them.
func conflicts(links, batch []reconcile.Pair) bool {
	left := map[reconcile.NodeID]reconcile.NodeID{}
	right := map[reconcile.NodeID]reconcile.NodeID{}
	for _, p := range links {
		left[p.Left] = p.Right
		right[p.Right] = p.Left
	}
	for _, p := range batch {
		if cur, ok := left[p.Left]; ok {
			if cur == p.Right {
				continue
			}
			return true
		}
		if _, ok := right[p.Right]; ok {
			return true
		}
		left[p.Left] = p.Right
		right[p.Right] = p.Left
	}
	return false
}

// tinyInstance is a small-jobs input: an n-node random base graph with
// about 3n edges, two copies that keep each edge with probability 0.85,
// 10% identity seeds, and two follow-up batches of further identity seeds.
func tinyInstance(ctx context.Context, r *reconcile.Rand, n int) (*instance, error) {
	g := reconcile.GenerateER(r, n, 6/float64(n-1))
	g1, g2 := reconcile.IndependentCopies(r, g, 0.85, 0.85)
	truth := reconcile.IdentityPairs(n)
	seeds := reconcile.Seeds(r, truth, 0.1)
	seeded := map[reconcile.Pair]bool{}
	for _, p := range seeds {
		seeded[p] = true
	}
	var rest []reconcile.Pair
	for _, p := range truth {
		if !seeded[p] {
			rest = append(rest, p)
		}
	}
	extra := reconcile.Seeds(r, rest, 0.12)
	half := (len(extra) + 1) / 2
	var batches [][]reconcile.Pair
	for _, b := range [][]reconcile.Pair{extra[:half], extra[half:]} {
		if len(b) > 0 {
			batches = append(batches, b)
		}
	}
	return newInstance(ctx, g1, g2, seeds, 8, func([]reconcile.Pair) [][]reconcile.Pair { return batches })
}

// paInstance is a large-job or restart input: a preferential-attachment
// graph (n nodes, m=10), two copies keeping each edge with probability
// 0.5, and 10% identity seeds. With batch > 0 it adds one follow-up batch
// of that many identity seeds whose nodes are unlinked on both sides after
// the cold run, so the batch never conflicts.
func paInstance(ctx context.Context, r *reconcile.Rand, n, batch int) (*instance, error) {
	g := reconcile.GeneratePA(r, n, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.5, 0.5)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(n), 0.1)
	if batch == 0 {
		return newInstance(ctx, g1, g2, seeds, 0, nil)
	}
	var short error
	inst, err := newInstance(ctx, g1, g2, seeds, 0, func(cold []reconcile.Pair) [][]reconcile.Pair {
		b := unlinkedIdentity(r, cold, n, batch)
		if len(b) < batch {
			short = fmt.Errorf("only %d unlinked identity pairs for a batch of %d", len(b), batch)
			return nil
		}
		return [][]reconcile.Pair{b}
	})
	if short != nil {
		return nil, short
	}
	return inst, err
}

// unlinkedIdentity picks up to k identity pairs (v, v), in random order,
// whose nodes are linked on neither side.
func unlinkedIdentity(r *reconcile.Rand, links []reconcile.Pair, n, k int) []reconcile.Pair {
	usedL := make([]bool, n)
	usedR := make([]bool, n)
	for _, p := range links {
		usedL[p.Left] = true
		usedR[p.Right] = true
	}
	var out []reconcile.Pair
	for _, v := range r.Perm(n) {
		if len(out) == k {
			break
		}
		if !usedL[v] && !usedR[v] {
			out = append(out, reconcile.Pair{Left: reconcile.NodeID(v), Right: reconcile.NodeID(v)})
		}
	}
	return out
}

// jobBody encodes a POST .../jobs body by hand: the large bodies run to
// megabytes, and the set-up time spent here is the benchmark's own.
func jobBody(n1 int, e1 []reconcile.Edge, n2 int, e2 []reconcile.Edge, seeds []reconcile.Pair, maxSweeps int) []byte {
	b := make([]byte, 0, 16*(len(e1)+len(e2)+len(seeds))+128)
	graphJSON := func(n int, es []reconcile.Edge) {
		b = append(b, `{"nodes":`...)
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, `,"edges":[`...)
		for i, e := range es {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPair(b, int64(e.U), int64(e.V))
		}
		b = append(b, "]}"...)
	}
	b = append(b, `{"g1":`...)
	graphJSON(n1, e1)
	b = append(b, `,"g2":`...)
	graphJSON(n2, e2)
	b = append(b, `,"seeds":`...)
	b = appendPairs(b, seeds)
	b = append(b, `,"untilStable":true`...)
	if maxSweeps > 0 {
		b = append(b, `,"maxSweeps":`...)
		b = strconv.AppendInt(b, int64(maxSweeps), 10)
	}
	return append(b, '}')
}

// seedsBody encodes a POST .../jobs/{id}/seeds body.
func seedsBody(seeds []reconcile.Pair) []byte {
	return append(appendPairs([]byte(`{"seeds":`), seeds), '}')
}

func appendPairs(b []byte, ps []reconcile.Pair) []byte {
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPair(b, int64(p.Left), int64(p.Right))
	}
	return append(b, ']')
}

func appendPair(b []byte, u, v int64) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, u, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, v, 10)
	return append(b, ']')
}
