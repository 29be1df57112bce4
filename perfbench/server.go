package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fvcache/client"
	"fvcache/internal/obs"
)

// server is one spawned fvcached with its own state directory.
type server struct {
	cmd    *exec.Cmd
	dir    string
	cli    *client.Client
	exited chan struct{} // closed once the process has been waited for
	err    error         // its exit status, valid after exited closes
}

// startServer boots a fresh fvcached on a free loopback port whose
// result cache and telemetry live in a new directory under the work
// directory, and waits until /readyz answers. The client caps its
// connections at nproc and never retries: the benchmark must see
// refusals, not paper over them.
func (b *bench) startServer(extra ...string) (*server, error) {
	dir, err := os.MkdirTemp(b.workdir, "fvcached-")
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-telemetry-out", filepath.Join(dir, "telemetry.json"),
	}, extra...)
	cmd := exec.Command(b.fvcached, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fvcached: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, exited: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() { // drain until exit so the child never blocks
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		close(lines)
		s.err = cmd.Wait()
		close(s.exited)
	}()
	var line string
	select {
	case line = <-lines:
	case <-time.After(30 * time.Second):
	}
	_, addr, ok := strings.Cut(line, "listening on ")
	if !ok {
		s.kill()
		return nil, fmt.Errorf("fvcached startup line %q names no address", line)
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}}
	s.cli, err = client.New("http://"+strings.TrimSpace(addr), client.Options{HTTPClient: hc, NoRetry: true})
	if err != nil {
		s.kill()
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := s.cli.Ready(context.Background()); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			s.kill()
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSS is the server's peak resident set in MiB.
func (s *server) peakRSS() (float64, error) {
	return peakRSS(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop drains the server with SIGTERM, waits for it to exit and
// removes its directory. Stopping a stopped server returns its exit
// status again.
func (s *server) stop() error {
	defer os.RemoveAll(s.dir)
	select {
	case <-s.exited:
		return s.err
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.exited:
		return s.err
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("fvcached did not drain within 60s")
	}
}

// kill ends the server at once, if it still runs, and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // an exited process is fine
	<-s.exited
	os.RemoveAll(s.dir)
}

// stageSnapshot reads fvcached's serve_stage_us histograms.
func (s *server) stageSnapshot() (map[string]obs.QuantileSnapshot, error) {
	raw, err := s.cli.MetricsJSON(context.Background())
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	out := map[string]obs.QuantileSnapshot{}
	for name, q := range snap.Latencies {
		if stage, ok := strings.CutPrefix(name, `serve_stage_us{stage="`); ok {
			out[strings.TrimSuffix(stage, `"}`)] = q
		}
	}
	return out, nil
}

// subtractBuckets returns the observations after minus before of one
// cumulative-bucket histogram. Bucket counts only grow, so the
// difference is exactly the histogram of the observations between the
// two reads.
func subtractBuckets(after, before []obs.Bucket) []obs.Bucket {
	out := make([]obs.Bucket, 0, len(after))
	for _, bk := range after {
		out = append(out, obs.Bucket{Le: bk.Le, Count: bk.Count - beforeAt(before, bk.Le)})
	}
	return out
}

// beforeAt returns the cumulative count of buckets at or below le.
func beforeAt(bs []obs.Bucket, le uint64) uint64 {
	var c uint64
	for _, bk := range bs {
		if bk.Le > le {
			break
		}
		c = bk.Count
	}
	return c
}

// bucketQuantile returns the nearest-rank q-quantile bound of a
// cumulative histogram, and false when it is empty.
func bucketQuantile(bs []obs.Bucket, q float64) (uint64, bool) {
	if len(bs) == 0 || bs[len(bs)-1].Count == 0 {
		return 0, false
	}
	rank := max(uint64(math.Ceil(q*float64(bs[len(bs)-1].Count))), 1)
	for _, bk := range bs {
		if bk.Count >= rank {
			return bk.Le, true
		}
	}
	return bs[len(bs)-1].Le, true
}
