package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
)

func TestLoadSeedsAndReverse(t *testing.T) {
	dir := t.TempDir()
	seedsPath := filepath.Join(dir, "seeds.txt")
	content := "# comment\n100 200\n300 400\n"
	if err := os.WriteFile(seedsPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ids1 := []int64{100, 300, 500}
	ids2 := []int64{200, 400}
	seeds, err := loadSeeds(seedsPath, ids1, ids2)
	if err != nil {
		t.Fatal(err)
	}
	want := []reconcile.Pair{{Left: 0, Right: 0}, {Left: 1, Right: 1}}
	if len(seeds) != 2 || seeds[0] != want[0] || seeds[1] != want[1] {
		t.Fatalf("seeds = %v, want %v", seeds, want)
	}
}

func TestLoadSeedsErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ids := []int64{1, 2}
	if _, err := loadSeeds(write("a.txt", "9 1\n"), ids, ids); err == nil {
		t.Error("unknown original ID accepted")
	}
	if _, err := loadSeeds(write("b.txt", "oops\n"), ids, ids); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := loadSeeds(filepath.Join(dir, "missing.txt"), ids, ids); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadGraph(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(p, []byte("1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, ids, err := loadGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 || len(ids) != 3 {
		t.Fatalf("graph: %d nodes %d edges %d ids", g.NumNodes(), g.NumEdges(), len(ids))
	}
	if _, _, err := loadGraph(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing graph file accepted")
	}
}

// End-to-end: generate an instance, write it to disk, run the built binary,
// check the output links. The MapReduce formulation must write a
// byte-identical links file, and a retired engine name must be refused.
func TestReconcileEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a binary")
	}
	bin := filepath.Join(t.TempDir(), "reconcile-cli")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building: %v\n%s", err, out)
	}

	dir := t.TempDir()
	r := reconcile.NewRand(1)
	g := reconcile.GeneratePA(r, 600, 8)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(600), 0.15)

	writeGraph := func(name string, gr *reconcile.Graph) string {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := reconcile.WriteEdgeList(f, gr); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return p
	}
	p1 := writeGraph("g1.txt", g1)
	p2 := writeGraph("g2.txt", g2)
	ps := filepath.Join(dir, "seeds.txt")
	var sb strings.Builder
	for _, s := range seeds {
		// Written graphs use dense IDs equal to original IDs here.
		sb.WriteString(strings.TrimSpace(strings.Join([]string{itoa(int(s.Left)), itoa(int(s.Right))}, " ")))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(ps, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "links.txt")
	cmd := exec.Command(bin, "-g1", p1, "-g2", p2, "-seeds", ps, "-threshold", "2", "-out", outPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("running: %v\n%s", err, out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < len(seeds)+50 {
		t.Fatalf("only %d output lines for %d seeds; matcher found too little", len(lines), len(seeds))
	}
	// Every non-comment line must be a pair, and (in this identity-truth
	// instance) the overwhelming majority must be self-pairs.
	good, bad := 0, 0
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad output line %q", line)
		}
		if fields[0] == fields[1] {
			good++
		} else {
			bad++
		}
	}
	if bad*20 > good {
		t.Fatalf("output quality: %d good, %d bad", good, bad)
	}

	mrPath := filepath.Join(dir, "links-mapreduce.txt")
	cmd = exec.Command(bin, "-g1", p1, "-g2", p2, "-seeds", ps, "-threshold", "2", "-engine", "mapreduce", "-out", mrPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("running -engine mapreduce: %v\n%s", err, out)
	}
	mrData, err := os.ReadFile(mrPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(mrData) != string(data) {
		t.Fatal("-engine mapreduce links differ from the default engine's")
	}

	cmd = exec.Command(bin, "-g1", p1, "-g2", p2, "-seeds", ps, "-engine", "sequential")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("-engine sequential: err = %v, want non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "unknown engine") {
		t.Fatalf("-engine sequential: no \"unknown engine\" message:\n%s", out)
	}
}

// A microscopic -timeout must abort the run with a clear message and a
// non-zero exit, and a generous one must not fire.
func TestReconcileTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a binary")
	}
	bin := filepath.Join(t.TempDir(), "reconcile-cli")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building: %v\n%s", err, out)
	}

	dir := t.TempDir()
	r := reconcile.NewRand(2)
	g := reconcile.GeneratePA(r, 2000, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.15)

	write := func(name string, gr *reconcile.Graph) string {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := reconcile.WriteEdgeList(f, gr); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return p
	}
	p1 := write("g1.txt", g1)
	p2 := write("g2.txt", g2)
	ps := filepath.Join(dir, "seeds.txt")
	var sb strings.Builder
	for _, s := range seeds {
		sb.WriteString(itoa(int(s.Left)) + " " + itoa(int(s.Right)) + "\n")
	}
	if err := os.WriteFile(ps, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	// 1ns expires before the first bucket boundary: non-zero exit, message.
	cmd := exec.Command(bin, "-g1", p1, "-g2", p2, "-seeds", ps, "-timeout", "1ns")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("1ns timeout: command succeeded\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("1ns timeout: err = %v, want non-zero exit", err)
	}
	if !strings.Contains(string(out), "deadline exceeded") {
		t.Fatalf("1ns timeout: no clear message in output:\n%s", out)
	}

	// A generous timeout completes normally.
	cmd = exec.Command(bin, "-g1", p1, "-g2", p2, "-seeds", ps, "-timeout", "5m", "-progress")
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("5m timeout: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "links total") {
		t.Fatalf("5m timeout: missing summary:\n%s", out)
	}
	if !strings.Contains(string(out), "bucket") {
		t.Fatalf("-progress: no bucket lines:\n%s", out)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	digits := []byte{}
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
