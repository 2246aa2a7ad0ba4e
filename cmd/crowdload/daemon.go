package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The universe every workload ranks over (the paper's n=200 setting with
// a pool of 30 workers) and the daemon's fixed pipeline seed.
const (
	objects    = 200
	workers    = 30
	daemonSeed = 1
)

// daemon is one crowdrankd process started by the benchmark.
type daemon struct {
	bin  string
	dir  string // data directory: journal, snapshots, epoch
	args []string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	url  string
	log  *os.File
}

// startDaemon launches crowdrankd over dir (created if missing) with the
// benchmark's fixed flags plus extra, and waits until it answers /readyz.
func startDaemon(ctx context.Context, bin, dir string, extra ...string) (*daemon, error) {
	d := &daemon{bin: bin, dir: dir, args: extra}
	if err := d.start(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) addrFile() string { return filepath.Join(d.dir, "addr") }

func (d *daemon) start(ctx context.Context) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	if err := os.Remove(d.addrFile()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	log, err := os.OpenFile(filepath.Join(d.dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// -fsync os: every journal record is still encoded and written, but
	// the per-ack fsync is left to the page cache. On a shared virtual
	// disk that fsync's latency moved 5x between runs minutes apart,
	// which no regression bound can absorb; the traced replay times
	// appends under SyncAlways instead (journal.sync_append_us).
	args := append([]string{
		"-n", strconv.Itoa(objects), "-m", strconv.Itoa(workers),
		"-journal", filepath.Join(d.dir, "journal"),
		"-seed", strconv.Itoa(daemonSeed), "-fsync", "os",
		"-addr", "127.0.0.1:0", "-addr-file", d.addrFile(),
	}, d.args...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// A daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		//lint:ignore errcheck the log file is empty of anything worth keeping when the process never started
		_ = log.Close()
		return fmt.Errorf("starting %s: %w", d.bin, err)
	}
	d.cmd, d.log, d.done = cmd, log, make(chan struct{})
	go func(done chan struct{}) {
		//lint:ignore errcheck a killed daemon exits non-zero by design; liveness is judged by /readyz, not the exit status
		_ = cmd.Wait()
		close(done)
	}(d.done)
	if err := d.waitReady(ctx); err != nil {
		d.kill()
		return err
	}
	return nil
}

// waitReady polls for the address file, which the daemon writes only
// after recovery, then for /readyz 200.
func (d *daemon) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for {
		if raw, err := os.ReadFile(d.addrFile()); err == nil {
			d.url = "http://" + strings.TrimSpace(string(raw))
			if status, err := get(ctx, d.url+"/readyz", nil); err == nil && status == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("crowdrankd exited before becoming ready; see %s", filepath.Join(d.dir, "daemon.log"))
		case <-ctx.Done():
			return fmt.Errorf("crowdrankd in %s not ready: %w", d.dir, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// kill SIGKILLs the process and waits until it is reaped.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	//lint:ignore errcheck the process may already have exited; the wait below is what matters
	_ = d.cmd.Process.Kill()
	d.reap()
}

// stop asks for a graceful shutdown (final journal sync) and waits,
// killing the process if it does not exit within ten seconds.
func (d *daemon) stop() {
	if d.cmd == nil {
		return
	}
	//lint:ignore errcheck the process may already have exited; the wait below is what matters
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		//lint:ignore errcheck the process may have exited in the meantime; reap waits either way
		_ = d.cmd.Process.Kill()
	}
	d.reap()
}

func (d *daemon) reap() {
	<-d.done
	//lint:ignore errcheck the log is only read by people debugging a failed run
	_ = d.log.Close()
	d.cmd = nil
}

// restart SIGKILLs the process and relaunches it over the same data
// directory, returning once the new process is ready.
func (d *daemon) restart(ctx context.Context) error {
	d.kill()
	return d.start(ctx)
}

// cpuMillis is the process's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpuMillis() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseCPUMillis(string(raw))
}

func parseCPUMillis(stat string) (float64, error) {
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line: %d fields", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(utime+stime) * 10, nil
}

// rssMB is the process's resident set size (VmRSS) in MiB.
func (d *daemon) rssMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", d.cmd.Process.Pid)
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Votes           int     `json:"votes"`
	Breaker         string  `json:"breaker"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	Replica         struct {
		LocalNextSeq uint64 `json:"local_next_seq"`
	} `json:"replica"`
}

func (d *daemon) health(ctx context.Context) (health, error) {
	var h health
	status, err := get(ctx, d.url+"/healthz", &h)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/healthz answered %d", status)
	}
	return h, err
}

// scrape reads /metrics into a map from series to value.
func (d *daemon) scrape(ctx context.Context) (series, error) {
	var buf bytes.Buffer
	status, err := get(ctx, d.url+"/metrics", &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseSeries(buf.String())
}

// post issues a bodiless POST (admin endpoints such as /snapshot) and
// requires a 200 answer.
func (d *daemon) post(ctx context.Context, path string) error {
	var body bytes.Buffer
	status, err := do(ctx, http.MethodPost, d.url+path, &body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST %s answered %d: %s", path, status, strings.TrimSpace(body.String()))
	}
	return err
}

// get fetches url; see do.
func get(ctx context.Context, url string, out any) (int, error) {
	return do(ctx, http.MethodGet, url, out)
}

// do issues one bodiless request. A *bytes.Buffer out receives the raw
// body, any other non-nil out the decoded JSON of a 200 answer.
func do(ctx context.Context, method, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		//lint:ignore errcheck the body is read to the end or abandoned; closing it carries nothing actionable
		_ = resp.Body.Close()
	}()
	switch o := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *bytes.Buffer:
		_, err = io.Copy(o, resp.Body)
	default:
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
	}
	return resp.StatusCode, err
}
