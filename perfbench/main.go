// Command perfbench is fvcache's repeatable benchmark. One invocation
// runs one named workload with one seed and prints, as its last line,
// a JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1), plus whether every output check
// passed. An earlier line carries the environment, the counters that
// explain the numbers, and a digest of every simulated statistic.
//
//	perfbench -workload serve-hot -seed 1 -seconds 25 -trace 0 \
//	    -fvcached path/to/fvcached -workdir scratch/dir
//
// run.py builds this program and fvcached from source and runs it;
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fvcache"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// bench is one invocation's settings and tracer.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	nproc    int
	fvcached string
	workdir  string
	tr       *tracer
	// work is the amount of work (accesses, configs x accesses or
	// calls) done inside each span name, the divisor of its layer
	// metric.
	work map[string]float64
	// fastest is the summed fastest run of each repeated probe.
	fastest map[string]time.Duration
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is the simulation work the server answered in the measured
// phase and the phase's wall time.
type phase struct {
	cfgAcc  float64 // configs x accesses answered by /v1/measure
	mrcAcc  float64 // accesses answered by /v1/mrc
	elapsed time.Duration
}

// outcome is what a workload measured.
type outcome struct {
	setup      []float64 // seconds, one per set-up round
	lat        []float64 // ms per user call in the measured phase
	within     int       // calls OK within the workload's limit
	attempted  int
	failed     int
	mismatches []string
	configs    int // configs answered in the measured phase
	phase      phase
	rssMB      float64
	digest     hash.Hash
	layers     map[string]metric
	info       map[string]any
	fvcHits    uint64 // FVC hits over the configs that have an FVC
	fvcMisses  uint64 // and those configs' misses
}

func newOutcome() *outcome {
	return &outcome{digest: sha256.New(), layers: map[string]metric{}, info: map[string]any{}}
}

// call records one user call's latency and outcome against limit.
func (o *outcome) call(d, limit time.Duration, err error) {
	o.attempted++
	o.lat = append(o.lat, ms(d))
	switch {
	case err != nil:
		o.mismatch("call failed: %v", err)
	case d <= limit:
		o.within++
	}
}

// mismatch records a wrong output; it fails the run. The first few
// are kept for the info line.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 10 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// digestAdd folds simulated statistics into the run's digest.
func (o *outcome) digestAdd(parts ...any) {
	data, _ := json.Marshal(parts) // plain structs of numbers and strings
	o.digest.Write(data)
}

// explainFVC accumulates how many DMC misses the FVCs caught.
func (o *outcome) explainFVC(res []fvcache.MeasureResult) {
	for _, r := range res {
		if r.Stats.FVCHits > 0 || r.Stats.WriteMissAllocs > 0 {
			o.fvcHits += r.Stats.FVCHits
			o.fvcMisses += r.Stats.Misses
		}
	}
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	b := &bench{nproc: runtime.NumCPU(), work: map[string]float64{}, fastest: map[string]time.Duration{}}
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fl.StringVar(&b.workload, "workload", "", "serve-hot or serve-cold")
	fl.Int64Var(&b.seed, "seed", 1, "seed of every generated input")
	fl.Float64Var(&b.seconds, "seconds", 25, "length of the measured phase")
	fl.StringVar(&b.fvcached, "fvcached", "", "fvcached binary")
	fl.StringVar(&b.workdir, "workdir", "", "directory for server state, removed by the caller")
	spans := fl.String("spans", "", "file the traced run's spans are written to (default in -workdir)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || b.workdir == "" || b.fvcached == "" || b.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -trace 0|1, -workdir, -fvcached and positive -seconds")
		return 2
	}
	b.tr = newTracer(*trace == 1)
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var o *outcome
	var err error
	switch b.workload {
	case "serve-hot":
		o, err = b.runServeHot()
	case "serve-cold":
		o, err = b.runServeCold()
	default:
		err = fmt.Errorf("unknown workload %q", b.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr.on {
		b.spanLayers(o)
		path := *spans
		if path == "" {
			path = filepath.Join(b.workdir, fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))
		}
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	if *trace == 1 {
		res.Metrics = map[string]metric{}
		for _, l := range perLayer {
			m, ok := o.layers[l[0]]
			if !ok {
				m = metric{0, l[1]}
			}
			res.Metrics[l[0]] = m
		}
	} else {
		res.Metrics = b.endToEnd(o)
	}
	info := b.environment()
	for k, v := range o.info {
		info[k] = v
	}
	info["digest"] = hex.EncodeToString(o.digest.Sum(nil))
	info["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	info["samples"] = len(o.lat)
	if o.fvcHits+o.fvcMisses > 0 {
		info["fvc_hit_ratio"] = float64(o.fvcHits) / float64(o.fvcHits+o.fvcMisses)
	}
	if len(o.mismatches) > 0 {
		info["mismatches"] = o.mismatches
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v: %+v\n", err, res.Metrics)
		return 1
	}
	return 0
}

// endToEnd computes every end-to-end metric from an untraced outcome.
func (b *bench) endToEnd(o *outcome) map[string]metric {
	q, tailMS, windows := windowTail(o.lat)
	o.info["tail_quantile"], o.info["tail_windows"] = q, windows
	sort.Float64s(o.lat)
	secs := o.phase.elapsed.Seconds()
	return map[string]metric{
		// Set-up is plain CPU work, and other load on a shared host only
		// ever slows it down: the fastest round is the best estimate.
		"setup_s":             {least(o.setup), "s"},
		"sweep_mcfgacc_per_s": {o.phase.cfgAcc / 1e6 / secs, "Mcfgacc/s"},
		"mrc_maccess_per_s":   {o.phase.mrcAcc / 1e6 / secs, "Macc/s"},
		"p50_ms":              {quantile(o.lat, 0.5), "ms"},
		"tail_ms":             {tailMS, "ms"},
		"within_limit_ratio":  {float64(o.within) / float64(max(o.attempted, 1)), "ratio"},
		"cfg_per_s":           {float64(o.configs) / secs, "1/s"},
		"rss_mb":              {o.rssMB, "MiB"},
	}
}

// environment is the stanza every result carries.
func (b *bench) environment() map[string]any {
	return map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"nproc":      b.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured code: the git HEAD when the working
// directory (the repository root) is a git checkout, otherwise a
// digest of its Go sources, so two results from the same code carry
// the same name either way.
func commit() string {
	root := "."
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks is the host's CPU time so far, all of it and the part a
// hypervisor gave to other guests (steal), in ticks of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// hostCPU reads the summary line of /proc/stat; zero where it is absent.
func hostCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of the host's CPU time since before that was
// stolen: a run with much steal measured a slower machine.
func (t cpuTicks) stealSince(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// peakRSS reads a process's peak resident set from /proc in MiB.
func peakRSS(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}

// resetPeakRSS restarts a process's peak-RSS count, so the next read
// covers only what follows.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0o644)
}
