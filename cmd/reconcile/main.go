// Command reconcile runs User-Matching over two edge-list files and a seed
// file, writing the expanded identification links.
//
// Usage:
//
//	reconcile -g1 network1.txt -g2 network2.txt -seeds seeds.txt \
//	    -threshold 2 -iterations 2 -timeout 30s -out links.txt
//
// -timeout bounds the whole run (the matcher stops at the next bucket
// boundary and the command exits non-zero); -progress streams per-bucket
// statistics to stderr. -engine mapreduce runs the paper's MapReduce
// formulation (internal/mapreduce), which honors neither; it writes the same
// links as the in-core engines. -engine parallel -workers 1 is the
// single-threaded reference.
//
// Graph files are SNAP-style edge lists ("u v" per line, '#' comments).
// Node IDs may be arbitrary; they are densified per file, and the seed file
// refers to the ORIGINAL IDs ("id-in-g1 id-in-g2" per line). Output links
// are written in original IDs as well.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/mapreduce"
)

func main() {
	var (
		g1Path     = flag.String("g1", "", "first network edge list (required)")
		g2Path     = flag.String("g2", "", "second network edge list (required)")
		seedsPath  = flag.String("seeds", "", "seed links file: 'id1 id2' per line in original IDs (required)")
		threshold  = flag.Int("threshold", 2, "minimum matching score T")
		iterations = flag.Int("iterations", 2, "number of sweeps k")
		engine     = flag.String("engine", "hybrid", "engine: hybrid, frontier, parallel, mapreduce (all produce identical links)")
		workers    = flag.Int("workers", 0, "goroutines (0 = GOMAXPROCS)")
		noBuckets  = flag.Bool("no-bucketing", false, "disable the degree bucketing schedule (ablation)")
		ties       = flag.String("ties", "reject", "tie policy: reject (conservative) or lowest-id (greedy)")
		scoring    = flag.String("scoring", "count", "candidate ranking: count (paper) or adamic-adar")
		margin     = flag.Int("margin", 0, "required witness-count gap over the runner-up")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration, e.g. 30s (0 = no limit; not honored by the mapreduce engine)")
		progress   = flag.Bool("progress", false, "log each bucket pass to stderr as it completes")
		out        = flag.String("out", "", "output links file (default stdout)")
	)
	flag.Parse()
	if *g1Path == "" || *g2Path == "" || *seedsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	g1, ids1, err := loadGraph(*g1Path)
	if err != nil {
		fatal(err)
	}
	g2, ids2, err := loadGraph(*g2Path)
	if err != nil {
		fatal(err)
	}
	seeds, err := loadSeeds(*seedsPath, ids1, ids2)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reconcile: G1 %v\n", reconcile.ComputeStats(g1))
	fmt.Fprintf(os.Stderr, "reconcile: G2 %v\n", reconcile.ComputeStats(g2))
	fmt.Fprintf(os.Stderr, "reconcile: %d seed links\n", len(seeds))

	opts := reconcile.DefaultOptions()
	opts.Threshold = *threshold
	opts.Iterations = *iterations
	opts.Workers = *workers
	opts.DisableBucketing = *noBuckets
	opts.MinMargin = *margin
	switch *ties {
	case "reject":
		opts.Ties = reconcile.TieReject
	case "lowest-id":
		opts.Ties = reconcile.TieLowestID
	default:
		fatal(fmt.Errorf("unknown tie policy %q", *ties))
	}
	switch *scoring {
	case "count":
		opts.Scoring = reconcile.ScoreWitnessCount
	case "adamic-adar":
		opts.Scoring = reconcile.ScoreAdamicAdar
	default:
		fatal(fmt.Errorf("unknown scoring %q", *scoring))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch *engine {
	case "hybrid":
		opts.Engine = reconcile.EngineHybrid
	case "frontier":
		opts.Engine = reconcile.EngineFrontier
	case "parallel":
		opts.Engine = reconcile.EngineParallel
	case "mapreduce":
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}

	var res *reconcile.Result
	if *engine == "mapreduce" {
		// The MapReduce formulation is batch-only: -timeout and -progress
		// do not apply.
		if *progress || *timeout > 0 {
			fmt.Fprintln(os.Stderr, "reconcile: note: -progress and -timeout are not honored by the mapreduce engine")
		}
		res, err = mapreduce.Reconcile(g1, g2, seeds, opts)
	} else {
		ropts := []reconcile.Option{reconcile.WithOptions(opts), reconcile.WithSeeds(seeds)}
		if *progress {
			start := time.Now()
			ropts = append(ropts, reconcile.WithProgress(func(e reconcile.PhaseEvent) {
				fmt.Fprintf(os.Stderr, "reconcile: [%6.2fs] sweep %d bucket %d/%d (degree >= %d): +%d links (total %d)\n",
					time.Since(start).Seconds(), e.Iteration, e.Bucket, e.Buckets, e.MinDegree, e.Matched, e.TotalLinks)
			}))
		}
		rec, err2 := reconcile.New(g1, g2, ropts...)
		if err2 != nil {
			fatal(err2)
		}
		res, err = rec.Run(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "reconcile: deadline exceeded: run aborted after %v with %d links (%d discovered); rerun with a larger -timeout\n",
				*timeout, len(res.Pairs), len(res.NewPairs))
			os.Exit(1)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reconcile: %d links total (%d new)\n", len(res.Pairs), len(res.NewPairs))

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# identification links: %d pairs (%d seeds first)\n", len(res.Pairs), res.Seeds)
	for _, p := range res.Pairs {
		fmt.Fprintf(bw, "%d\t%d\n", ids1[p.Left], ids2[p.Right])
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
}

func loadGraph(path string) (*reconcile.Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, ids, err := reconcile.ReadEdgeList(bufio.NewReader(f))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, ids, nil
}

// loadSeeds reads "origID1 origID2" lines and maps them to dense node IDs.
func loadSeeds(path string, ids1, ids2 []int64) ([]reconcile.Pair, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rev1 := reverse(ids1)
	rev2 := reverse(ids2)
	var out []reconcile.Pair
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		var a, b int64
		if n, _ := fmt.Sscanf(line, "%d %d", &a, &b); n < 2 {
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			return nil, fmt.Errorf("%s: line %d: want 'id1 id2'", path, lineno)
		}
		l, ok1 := rev1[a]
		r, ok2 := rev2[b]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%s: line %d: seed (%d, %d) not present in the graphs", path, lineno, a, b)
		}
		out = append(out, reconcile.Pair{Left: l, Right: r})
	}
	return out, sc.Err()
}

func reverse(ids []int64) map[int64]reconcile.NodeID {
	m := make(map[int64]reconcile.NodeID, len(ids))
	for dense, orig := range ids {
		m[orig] = reconcile.NodeID(dense)
	}
	return m
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "reconcile: %v\n", err)
	os.Exit(1)
}
