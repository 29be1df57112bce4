// Command benchsweep measures the sweep engine's two optimization
// layers against live per-configuration execution and writes the
// result as a JSON artifact (BENCH_sweep.json by default).
//
// The sweep is Figure 10's shape — a 16KB direct-mapped baseline plus
// every FVC entry count — over one workload. "Live" runs the workload
// once per configuration, the way the experiment suite worked before
// the recording engine; "replay" captures the trace once through the
// shared recording cache and replays it once per configuration;
// "batch" replays the recording exactly once, driving every
// configuration in lockstep through the fused SystemSet engine;
// "parallel" adds the config-sharded layer on top, splitting the
// configurations across -workers shards that each run the fused replay
// over the shared recording. The artifact also reports the
// steady-state allocation counts of both replay paths (which the
// de-allocated access loops keep at zero), the machine's core count,
// and the columnar trace's compressed bytes per access.
//
// A second pair of lanes races the analytic miss-rate-curve engine
// (internal/mrc) against the fused batch replay of a fig10-style
// direct-mapped size ladder — every power-of-two size from 1KB to
// 64KB at 32B lines. The analytic pass produces every ladder point at
// once; its miss counts are cross-checked against the replay before
// either lane is timed, and the artifact records the resulting
// mrc_speedup and per-access cost.
//
// With -verify, benchsweep instead reads an existing artifact and
// checks it is well-formed: every speedup layer must be >= 1.0, the
// parallel lane must beat batch on multi-core machines (and stay
// within bounded overhead on one core), the analytic pass must beat
// the ladder replay by at least 5x, the steady-state allocation
// counts zero, the compression ratio real, and the telemetry snapshot
// next to it must satisfy obs.ValidateSnapshot. All violations are
// reported at once, each naming the offending field. make check uses
// this to keep both committed artifacts honest.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/harness"
	"fvcache/internal/mrc"
	"fvcache/internal/obs"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

type report struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Configs  int    `json:"configs"`
	Accesses uint64 `json:"accesses"`

	LiveNsPerSweep     int64   `json:"live_ns_per_sweep"`
	ReplayNsPerSweep   int64   `json:"replay_ns_per_sweep"`
	BatchNsPerSweep    int64   `json:"batch_ns_per_sweep"`
	ParallelNsPerSweep int64   `json:"parallel_ns_per_sweep"`
	Speedup            float64 `json:"speedup"`          // live / replay
	BatchSpeedup       float64 `json:"batch_speedup"`    // replay / batch
	TotalSpeedup       float64 `json:"total_speedup"`    // live / batch
	ParallelSpeedup    float64 `json:"parallel_speedup"` // batch / parallel

	// Cores records how many CPUs the parallel lane could use
	// (GOMAXPROCS at bench time); verify's parallel_speedup threshold
	// depends on it, since one core can only show bounded overhead.
	Cores int `json:"cores"`
	// CompressedBytesPerAccess is the columnar chunk encoding's
	// footprint (store bitset + delta'd addrs + frame-of-reference
	// values) per recorded access. The raw columns cost 9 bytes per
	// access.
	CompressedBytesPerAccess float64 `json:"compressed_bytes_per_access"`

	// SteadyReplayAllocs counts heap allocations per full recording
	// replay into a warm hierarchy (the de-allocated access path).
	SteadyReplayAllocs float64 `json:"steady_replay_allocs"`
	// SteadyBatchAllocs counts heap allocations per full fused replay
	// into a warm SystemSet driving every sweep configuration.
	SteadyBatchAllocs float64 `json:"steady_batch_allocs"`

	// The miss-rate-curve lanes compare one analytic reuse-distance
	// pass (internal/mrc) against the fused batch replay of the same
	// direct-mapped size ladder — the fig10-style geometry swept over
	// every power-of-two size. MRCPoints is the ladder length; the
	// analytic pass produces all of them at once and its miss counts
	// are cross-checked against the replay in-run before timing.
	MRCPoints        int     `json:"mrc_points"`
	LadderNsPerSweep int64   `json:"ladder_ns_per_sweep"` // batch replay of the ladder
	MRCNsPerSweep    int64   `json:"mrc_ns_per_sweep"`    // one analytic pass
	MRCNsPerAccess   float64 `json:"mrc_ns_per_access"`
	MRCSpeedup       float64 `json:"mrc_speedup"` // ladder / mrc
}

func sweepGrid(values []uint32) []core.Config {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	cfgs := []core.Config{{Main: main}}
	for _, e := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		cfgs = append(cfgs, core.Config{
			Main:           main,
			FVC:            &fvc.Params{Entries: e, LineBytes: main.LineBytes, Bits: 3},
			FrequentValues: values,
		})
	}
	return cfgs
}

// mrcLadder is the fig10-style direct-mapped size sweep the MRC lanes
// race: every power-of-two size from 1KB to 64KB at the figure's 32B
// lines, one replay config and one set count per point.
func mrcLadder() ([]core.Config, []int) {
	var cfgs []core.Config
	var sets []int
	for sz := 1 << 10; sz <= 64<<10; sz <<= 1 {
		cfgs = append(cfgs, core.Config{Main: cache.Params{SizeBytes: sz, LineBytes: 32, Assoc: 1}})
		sets = append(sets, sz/32)
	}
	return cfgs, sets
}

// crossCheckMRC asserts the analytic pass and the fused replay agree
// on every ladder point's miss count before either lane is timed: a
// speedup over a wrong answer is not a speedup.
func crossCheckMRC(rec *trace.Recording, cfgs []core.Config, mrcOpt mrc.Options) error {
	res, err := mrc.Analyze(rec, mrcOpt)
	if err != nil {
		return err
	}
	replay, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{})
	if err != nil {
		return err
	}
	for i, c := range res.Curves {
		if got, want := c.Points[0].Misses, replay[i].Stats.Misses; got != want {
			return fmt.Errorf("mrc cross-check: %dB ladder point: analytic %d misses, replay %d",
				cfgs[i].Main.SizeBytes, got, want)
		}
	}
	return nil
}

func run(ctx context.Context, out string, workers int) error {
	const scale = workload.Test
	w, err := workload.Get("imgdct")
	if err != nil {
		return err
	}
	values := sim.ProfileTopAccessed(w, scale, 7)
	cfgs := sweepGrid(values)

	liveBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := sim.Measure(w, scale, cfg, sim.MeasureOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	rec, err := sim.Recordings.Get(w, scale)
	if err != nil {
		return err
	}
	replayBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, err := sim.Recordings.Get(w, scale)
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range cfgs {
				if _, err := sim.MeasureRecorded(rec, cfg, sim.MeasureOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	batchBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, err := sim.Recordings.Get(w, scale)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	parallelBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, err := sim.Recordings.Get(w, scale)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{Parallelism: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}

	ladderCfgs, ladderSets := mrcLadder()
	mrcOpt := mrc.Options{LineBytes: 32, MaxSizeBytes: 64 << 10, SetCounts: ladderSets, MaxAssoc: 1}
	if err := crossCheckMRC(rec, ladderCfgs, mrcOpt); err != nil {
		return err
	}
	ladderBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.MeasureRecordedBatch(rec, ladderCfgs, sim.MeasureOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	mrcBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mrc.Analyze(rec, mrcOpt); err != nil {
				b.Fatal(err)
			}
		}
	}

	// Interleave repetitions and keep the fastest of each side: the
	// minimum is the standard de-noising estimator for wall-clock
	// benchmarks on shared machines (noise is strictly additive).
	const reps = 3
	liveNs, replayNs, batchNs, parallelNs := int64(0), int64(0), int64(0), int64(0)
	ladderNs, mrcNs := int64(0), int64(0)
	bspan := obs.Begin("bench")
	for r := 0; r < reps; r++ {
		// The bench loops themselves stay context-free (a ctx check in
		// the measured path would perturb the numbers); -timeout aborts
		// between repetitions.
		if err := ctx.Err(); err != nil {
			bspan.Done()
			return err
		}
		lspan := bspan.Begin("live")
		if ns := testing.Benchmark(liveBench).NsPerOp(); r == 0 || ns < liveNs {
			liveNs = ns
		}
		lspan.Done()
		pspan := bspan.Begin("replay")
		if ns := testing.Benchmark(replayBench).NsPerOp(); r == 0 || ns < replayNs {
			replayNs = ns
		}
		pspan.Done()
		fspan := bspan.Begin("batch")
		if ns := testing.Benchmark(batchBench).NsPerOp(); r == 0 || ns < batchNs {
			batchNs = ns
		}
		fspan.Done()
		cspan := bspan.Begin("parallel")
		if ns := testing.Benchmark(parallelBench).NsPerOp(); r == 0 || ns < parallelNs {
			parallelNs = ns
		}
		cspan.Done()
		dspan := bspan.Begin("ladder")
		if ns := testing.Benchmark(ladderBench).NsPerOp(); r == 0 || ns < ladderNs {
			ladderNs = ns
		}
		dspan.Done()
		mspan := bspan.Begin("mrc")
		if ns := testing.Benchmark(mrcBench).NsPerOp(); r == 0 || ns < mrcNs {
			mrcNs = ns
		}
		mspan.Done()
	}
	bspan.Done()

	aspan := obs.Begin("alloc-check")
	sys, err := core.New(cfgs[len(cfgs)-1])
	if err != nil {
		return err
	}
	sim.ReplayInto(rec, sys) // warm: pages and cache frames materialized
	allocs := testing.AllocsPerRun(3, func() { sim.ReplayInto(rec, sys) })

	set, err := core.NewSet(cfgs)
	if err != nil {
		return err
	}
	ops, addrs, vals := rec.AccessColumns()
	set.ReplayColumns(ops, addrs, vals) // warm
	batchAllocs := testing.AllocsPerRun(3, func() { set.ReplayColumns(ops, addrs, vals) })
	aspan.Done()

	rspan := obs.Begin("report")
	defer rspan.Done()
	r := report{
		Workload:                 w.Name(),
		Scale:                    "test",
		Configs:                  len(cfgs),
		Accesses:                 rec.Accesses(),
		LiveNsPerSweep:           liveNs,
		ReplayNsPerSweep:         replayNs,
		BatchNsPerSweep:          batchNs,
		ParallelNsPerSweep:       parallelNs,
		Speedup:                  float64(liveNs) / float64(replayNs),
		BatchSpeedup:             float64(replayNs) / float64(batchNs),
		TotalSpeedup:             float64(liveNs) / float64(batchNs),
		ParallelSpeedup:          float64(batchNs) / float64(parallelNs),
		Cores:                    runtime.GOMAXPROCS(0),
		CompressedBytesPerAccess: rec.Chunked(0).BytesPerAccess(),
		SteadyReplayAllocs:       allocs,
		SteadyBatchAllocs:        batchAllocs,
		MRCPoints:                len(ladderCfgs),
		LadderNsPerSweep:         ladderNs,
		MRCNsPerSweep:            mrcNs,
		MRCNsPerAccess:           float64(mrcNs) / float64(rec.Accesses()),
		MRCSpeedup:               float64(ladderNs) / float64(mrcNs),
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("%-10s %d configs: live %.1fms  replay %.1fms  batch %.1fms  parallel %.1fms (%d workers, %d cores)  speedup %.2fx  batch speedup %.2fx  total %.2fx  parallel speedup %.2fx  %.2f B/access  steady allocs replay %.0f batch %.0f\n",
		r.Workload, r.Configs,
		float64(r.LiveNsPerSweep)/1e6, float64(r.ReplayNsPerSweep)/1e6, float64(r.BatchNsPerSweep)/1e6,
		float64(r.ParallelNsPerSweep)/1e6, workers, r.Cores,
		r.Speedup, r.BatchSpeedup, r.TotalSpeedup, r.ParallelSpeedup,
		r.CompressedBytesPerAccess,
		r.SteadyReplayAllocs, r.SteadyBatchAllocs)
	fmt.Printf("%-10s %d-point DM ladder: batch %.1fms  mrc %.1fms (%.2f ns/access)  mrc speedup %.2fx\n",
		r.Workload, r.MRCPoints,
		float64(r.LadderNsPerSweep)/1e6, float64(r.MRCNsPerSweep)/1e6,
		r.MRCNsPerAccess, r.MRCSpeedup)
	fmt.Printf("wrote %s\n", out)
	return nil
}

// verify checks an existing artifact: it must parse, each optimization
// layer must actually be a speedup, the timing fields must be present,
// the steady-state replay loops must be allocation-free, and the
// columnar compression must beat the 9-byte raw encoding. Every
// violation is collected and reported — each message names the JSON
// field at fault — so a regression with several symptoms is diagnosed
// in one run instead of one field per run. The telemetry snapshot
// written alongside the artifact is validated too, so a schema
// regression in the exporter cannot ship unnoticed.
//
// The parallel_speedup threshold is core-count aware: with two or more
// cores the config-sharded lane must genuinely beat the fused batch
// replay (>= 1.2x); on a single core no speedup is physically possible,
// so the gate instead bounds the shard overhead (>= 0.6x, i.e. at most
// ~1.7x slower than batch): each shard walks the columns and rebuilds
// the memory image on its own.
func verify(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var bad []string
	badf := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	if r.Configs < 2 {
		badf("configs is %d, want >= 2", r.Configs)
	}
	if r.Accesses == 0 {
		badf("accesses is 0, want > 0")
	}
	if r.Cores < 1 {
		badf("cores is %d, want >= 1", r.Cores)
	}
	if r.MRCPoints < 2 {
		badf("mrc_points is %d, want >= 2", r.MRCPoints)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"live_ns_per_sweep", r.LiveNsPerSweep},
		{"replay_ns_per_sweep", r.ReplayNsPerSweep},
		{"batch_ns_per_sweep", r.BatchNsPerSweep},
		{"parallel_ns_per_sweep", r.ParallelNsPerSweep},
		{"ladder_ns_per_sweep", r.LadderNsPerSweep},
		{"mrc_ns_per_sweep", r.MRCNsPerSweep},
	} {
		if c.v <= 0 {
			badf("%s is %d, want > 0", c.name, c.v)
		}
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"speedup", r.Speedup},
		{"batch_speedup", r.BatchSpeedup},
		{"total_speedup", r.TotalSpeedup},
	} {
		if c.v < 1.0 {
			badf("%s is %.2f, want >= 1.0", c.name, c.v)
		}
	}
	minParallel := 0.6 // single core: bounded overhead, not speedup
	if r.Cores >= 2 {
		minParallel = 1.2
	}
	if r.ParallelSpeedup < minParallel {
		badf("parallel_speedup is %.2f, want >= %.1f on %d cores",
			r.ParallelSpeedup, minParallel, r.Cores)
	}
	// The analytic engine's bar is absolute: one reuse-distance pass
	// must beat the fused batch replay of the same size ladder by 5x
	// on any core count (the pass is serial).
	if r.MRCSpeedup < 5.0 {
		badf("mrc_speedup is %.2f, want >= 5.0", r.MRCSpeedup)
	}
	if r.MRCNsPerAccess <= 0 {
		badf("mrc_ns_per_access is %.2f, want > 0", r.MRCNsPerAccess)
	}
	if r.CompressedBytesPerAccess <= 0 || r.CompressedBytesPerAccess >= 9 {
		badf("compressed_bytes_per_access is %.2f, want in (0, 9): raw columns cost 9 bytes",
			r.CompressedBytesPerAccess)
	}
	if r.SteadyReplayAllocs != 0 {
		badf("steady_replay_allocs is %.0f, want 0", r.SteadyReplayAllocs)
	}
	if r.SteadyBatchAllocs != 0 {
		badf("steady_batch_allocs is %.0f, want 0", r.SteadyBatchAllocs)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: %d violation(s):\n  %s", path, len(bad), strings.Join(bad, "\n  "))
	}
	tpath := filepath.Join(filepath.Dir(path), "telemetry.json")
	tbuf, err := os.ReadFile(tpath)
	if err != nil {
		return fmt.Errorf("telemetry snapshot missing next to %s: %w", path, err)
	}
	snap, err := obs.ValidateSnapshot(tbuf)
	if err != nil {
		return fmt.Errorf("%s: %w", tpath, err)
	}
	fmt.Printf("%s ok: live/replay %.2fx, replay/batch %.2fx, live/batch %.2fx, batch/parallel %.2fx on %d cores, mrc %.2fx over the %d-point ladder, %.2f B/access, zero steady-state allocs\n",
		path, r.Speedup, r.BatchSpeedup, r.TotalSpeedup, r.ParallelSpeedup, r.Cores,
		r.MRCSpeedup, r.MRCPoints, r.CompressedBytesPerAccess)
	fmt.Printf("%s ok: %s, %d counters, %d phases\n",
		tpath, snap.Schema, len(snap.Counters), len(snap.Phases.Children))
	return nil
}

func main() {
	os.Exit(mainExit())
}

func mainExit() (code int) {
	out := flag.String("o", "BENCH_sweep.json", "output path for the JSON artifact")
	check := flag.String("verify", "", "verify an existing artifact instead of benchmarking")
	cf := harness.AddCommonFlags(flag.CommandLine, harness.FlagWorkers|harness.FlagTimeout, "")
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	workers := cf.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if *check != "" {
		// Verify is read-only: it must not overwrite the committed
		// telemetry artifact it is checking.
		of.TelemetryOut = ""
		if err := verify(*check); err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep:", err)
			return 1
		}
		return 0
	}
	// The telemetry snapshot ships next to the benchmark artifact.
	if of.TelemetryOut == "telemetry.json" {
		of.TelemetryOut = filepath.Join(filepath.Dir(*out), "telemetry.json")
	}
	if err := of.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		return 1
	}
	defer func() {
		if err := of.Stop(); err != nil && code == 0 {
			fmt.Fprintln(os.Stderr, "benchsweep: telemetry:", err)
			code = 1
		}
	}()
	ctx, cancel := cf.Context(context.Background())
	defer cancel()
	if err := run(ctx, *out, workers); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		return 1
	}
	return 0
}
