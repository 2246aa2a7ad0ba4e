// Command crowdload is crowdrank's end-to-end benchmark: a seeded,
// open-loop load generator that launches real crowdrankd processes and
// drives them through internal/client.
//
// Usage (from the repository root; bench.sh builds both binaries):
//
//	bash cmd/crowdload/bench.sh [-workload all|ingest|rank-steady|mixed|recover]
//	        [-seed S] [-seconds T] [-trace 0|1] [-runs K] [-out results.json]
//	bash cmd/crowdload/bench.sh -compare base.json change.json
//
// One run of one workload sets the daemon up setupReps times from
// scratch, measures the last set-up for -seconds, checks every output,
// and prints its metrics followed by one JSON result line. -trace 1
// reports the per-layer metrics instead and writes every span to
// <workdir>/trace-<workload>-seed<S>.json. -workload all runs each
// workload -runs times (and, with -trace 1, once traced after each
// untraced run), and -out keeps the runs for -compare, which reads the
// bounds from BENCHMARK.json in the working directory. See README.md for
// the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one run of one workload, set-up and checks included.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crowdload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: determines every vote and key the generator sends")
	seconds := fs.Int("seconds", 25, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run and write its spans")
	runs := fs.Int("runs", 1, "runs of each workload")
	out := fs.String("out", "", "append this invocation's runs as one set to this results file, with machine metadata")
	commit := fs.String("commit", "", "commit the binaries were built from, recorded in -out")
	bin := fs.String("daemon", "", "crowdrankd binary to benchmark")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "run"), "scratch directory for daemon data and traces")
	compareMode := fs.Bool("compare", false, "compare result sets: the last sets of base.json and change.json, or the first and last sets of one file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() < 1 || fs.NArg() > 2 {
			fmt.Fprintln(stderr, "crowdload: -compare needs one or two results files")
			return 2
		}
		return compareFiles(stdout, stderr, "BENCHMARK.json", fs.Args())
	}
	if *bin == "" || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "crowdload: need -daemon, -seconds >= 1, -runs >= 1 and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "crowdload: %v\n", err)
			return 2
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "crowdload: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A single traced run reports per-layer metrics only; the all-workload
	// mode pairs each untraced run with a traced one.
	passes := []bool{*trace == 1}
	if *name == "all" && *trace == 1 {
		passes = []bool{false, true}
	}
	var set []runRecord
	code := 0
	for _, w := range selected {
		for range *runs {
			for _, traced := range passes {
				cfg := config{bin: *bin, workdir: *workdir, seed: *seed, seconds: *seconds, trace: traced,
					traceOut: filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))}
				rec, err := execute(ctx, cfg, w)
				if err != nil {
					fmt.Fprintf(stderr, "crowdload: %s: %v\n", w.name, err)
					return 1
				}
				if err := rec.print(stdout); err != nil {
					fmt.Fprintf(stderr, "crowdload: %v\n", err)
					return 1
				}
				if !rec.Correct {
					code = 1
				}
				set = append(set, rec)
			}
		}
	}
	if *out != "" {
		if err := appendResults(*out, machine(args, *commit), set); err != nil {
			fmt.Fprintf(stderr, "crowdload: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs one workload once under runLimit. The run's scratch
// directory is removed unless a check failed, when its daemon logs help.
func execute(ctx context.Context, cfg config, w *workload) (runRecord, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return runRecord{}, err
	}
	r := &runner{cfg: cfg, wl: w, dir: dir}
	if err := r.run(ctx); err != nil {
		return runRecord{}, fmt.Errorf("%w (daemon logs kept in %s)", err, dir)
	}
	rec := r.result()
	if cfg.trace {
		if err := r.writeTrace(cfg.traceOut); err != nil {
			return rec, err
		}
	}
	if rec.Correct {
		if err := os.RemoveAll(dir); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// resultsFile is what -out writes and -compare reads: sets of runs, one
// per invocation, and the machine they ran on.
type resultsFile struct {
	Meta map[string]string `json:"meta"`
	Sets [][]runRecord     `json:"sets"`
}

// machine records what a result depends on besides the code.
func machine(args []string, commit string) map[string]string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"command":    "crowdload " + strings.Join(args, " "),
		"commit":     commit,
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// appendResults adds set to the results file at path, creating it if
// needed. Each run takes one line, so a file of many runs stays
// readable and diffs by run.
func appendResults(path string, meta map[string]string, set []runRecord) error {
	f, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Meta = meta
	f.Sets = append(f.Sets, set)
	var b bytes.Buffer
	m, err := json.MarshalIndent(f.Meta, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "{\"meta\": %s,\n\"sets\": [", m)
	for i, s := range f.Sets {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n[")
		for j, r := range s {
			line, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n%s", line)
		}
		b.WriteString("\n]")
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
