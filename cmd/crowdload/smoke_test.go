package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads builds crowdrankd and runs every workload with a
// one-second phase, untraced and traced, through the command's own entry
// point: every output check must pass and every declared metric appear.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons for every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "crowdrankd")
	if out, err := exec.Command("go", "build", "-o", bin, "crowdrank/cmd/crowdrankd").CombinedOutput(); err != nil {
		t.Fatalf("building crowdrankd: %v\n%s", err, out)
	}
	results := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-daemon", bin, "-workdir", filepath.Join(dir, "run"), "-seconds", "1", "-trace", "1", "-out", results}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	f, err := readResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sets) != 1 || len(f.Sets[0]) != 2*len(workloads) {
		t.Fatalf("got sets %v, want one set with an untraced and a traced run of each of %d workloads", f.Sets, len(workloads))
	}
	for _, rec := range f.Sets[0] {
		if !rec.Correct || rec.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", rec.Workload, rec.Trace, rec.Correct, rec.Attempted, rec.Failures)
		}
		defs := endToEnd
		if rec.Trace {
			defs = perLayer
			if _, err := os.Stat(filepath.Join(dir, "run", "trace-"+rec.Workload+"-seed1.json")); err != nil {
				t.Errorf("%s: no span file: %v", rec.Workload, err)
			}
		}
		for _, d := range defs {
			if _, ok := rec.Metrics[d.name]; !ok {
				t.Errorf("%s trace=%v: metric %s missing", rec.Workload, rec.Trace, d.name)
			}
		}
		for _, d := range endToEnd {
			if m := rec.Metrics[d.name]; !rec.Trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", rec.Workload, d.name, m.Value)
			}
		}
	}
}
