package sim

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// shardConfigs is batchConfigs (direct-mapped plain/FVC/victim lanes,
// a 2-way main cache, an L2, online FVT) plus a 4-way main cache. With
// online false it leaves out the online-FVT config, whose sketch
// update costs tens of probes per access.
func shardConfigs(w workload.Workload, online bool) []core.Config {
	var out []core.Config
	for _, c := range batchConfigs(w) {
		if online || c.OnlineFVTEvery == 0 {
			out = append(out, c)
		}
	}
	return append(out, core.Config{Main: cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 4}})
}

// shardCounts is the shard counts every equivalence case runs: one
// shard, two, and more shards than configurations (clamped to one
// configuration per shard).
func shardCounts(k int) []int { return []int{1, 2, k + 1} }

// requireSharded runs the config-sharded engine directly with n shards
// (n == 1 still goes through harness.Map, unlike MeasureRecordedBatch,
// which replays a one-worker batch serially) and requires every
// MeasureResult to equal want bit for bit.
func requireSharded(t *testing.T, rec *trace.Recording, cfgs []core.Config, opt MeasureOptions, n int, want []MeasureResult) {
	t.Helper()
	opt.Parallelism = n
	got, err := measureSharded(rec, cfgs, opt)
	if err != nil {
		t.Fatalf("shards=%d: %v", n, err)
	}
	if len(got) != len(want) {
		t.Fatalf("shards=%d: %d results for %d configs", n, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shards=%d config %d: sharded result diverges\nsharded: %+v\nserial:  %+v", n, i, got[i], want[i])
		}
	}
}

// TestParallelReplayEquivalence is the sharded engine's contract: for
// every registered workload and every configuration shape — direct-
// mapped with and without an FVC, victim, 2- and 4-way, L2 — a
// config-sharded batch is bit-identical to the serial fused batch at
// every shard count. Online FVT is covered by the hooked test below.
func TestParallelReplayEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := shardConfigs(w, false)
			want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardCounts(len(cfgs)) {
				requireSharded(t, rec, cfgs, MeasureOptions{}, n, want)
			}
		})
	}
}

// TestParallelReplayHookParity checks full MeasureResult equality —
// warmup exclusion, FVC sampling averages (float-exact), audits and
// value verification — between hooked sharded and serial batches, with
// an online-FVT config among them (it shards like any other; there is
// no serial fallback), and that MeasureRecordedBatch routes a
// multi-config batch with Parallelism > 1 through the sharded engine.
func TestParallelReplayHookParity(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shardConfigs(w, true)
	opt := MeasureOptions{
		WarmupAccesses: 10_000,
		SampleEvery:    5_000,
		AuditEvery:     50_000,
		VerifyValues:   true,
	}
	want, err := MeasureRecordedBatch(rec, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardCounts(len(cfgs)) {
		requireSharded(t, rec, cfgs, opt, n, want)
	}

	shards := obs.ShardReplays.Load()
	opt.Parallelism = 3
	got, err := MeasureRecordedBatch(rec, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.ShardReplays.Load() - shards; obs.Enabled && d != 3 {
		t.Errorf("MeasureRecordedBatch with Parallelism 3 ran %d shards, want 3", d)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("config %d: MeasureRecordedBatch(Parallelism 3) diverges from serial", i)
		}
	}
}

// synthRecording is a deterministic xorshift access stream of n
// accesses over 16 KiB, a quarter of them stores, mostly of zero.
func synthRecording(n int, seed uint64) *trace.Recording {
	rec := trace.NewRecording()
	x := seed | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		op := trace.Load
		if x&3 == 0 {
			op = trace.Store
		}
		addr := uint32(x>>20) % 16384 &^ 3
		val := uint32(0)
		if x&7 == 7 {
			val = uint32(x >> 40)
		}
		rec.Append(op, addr, val)
	}
	return rec
}

// smallConfigs is a five-config batch sized for synthRecording: plain,
// FVC, victim, 2-way and L2.
func smallConfigs() []core.Config {
	main := cache.Params{SizeBytes: 1 << 12, LineBytes: 32, Assoc: 1}
	return []core.Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 64, LineBytes: 32, Bits: 3},
			FrequentValues: []uint32{0, 1, 0xffffffff, 7, 42, 9, 13}},
		{Main: main, VictimEntries: 4},
		{Main: cache.Params{SizeBytes: 1 << 12, LineBytes: 32, Assoc: 2}},
		{Main: main, L2: &cache.Params{SizeBytes: 1 << 14, LineBytes: 32, Assoc: 4}},
	}
}

// TestParallelReplayChunkSizeSweep sweeps the split of a parallel
// batch. Shards split the configurations, not the trace, so there is
// no chunk size left to choose; the sweep runs the trace lengths that
// used to be chunk sizes (1, 3, 97 and 10_000 accesses, so traces far
// shorter than one decode chunk are covered) at two and five workers
// through MeasureRecordedBatch, and requires every result to equal the
// serial batch bit for bit.
func TestParallelReplayChunkSizeSweep(t *testing.T) {
	cfgs := smallConfigs()
	for _, n := range []int{1, 3, 97, 10_000} {
		rec := synthRecording(n, 77)
		want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5} {
			got, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{Parallelism: workers})
			if err != nil {
				t.Fatalf("accesses=%d workers=%d: %v", n, workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("accesses=%d workers=%d config %d: diverges\npar:    %+v\nserial: %+v",
						n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelReplayOnlineFVTFallback checks a batch that holds an
// online-FVT config at Parallelism 4 against the serial batch. Such a
// config once forced the whole batch back to serial replay; now it is
// sharded like any other, and the results must still match bit for bit.
func TestParallelReplayOnlineFVTFallback(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchConfigs(w) // includes the OnlineFVTEvery shape
	want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("config %d: sharded result diverges from serial", i)
		}
	}
}

// TestParallelReplayCancelled checks that a cancelled context aborts a
// sharded batch with the context's error and no results, both at the
// MeasureRecordedBatch entry and inside the shard fan-out.
func TestParallelReplayCancelled(t *testing.T) {
	w, err := workload.Get("strproc")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := MeasureOptions{Ctx: ctx, Parallelism: 2}
	for name, run := range map[string]func() ([]MeasureResult, error){
		"batch":   func() ([]MeasureResult, error) { return MeasureRecordedBatch(rec, shardConfigs(w, false), opt) },
		"sharded": func() ([]MeasureResult, error) { return measureSharded(rec, shardConfigs(w, false), opt) },
	} {
		out, err := run()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if out != nil {
			t.Errorf("%s: cancelled batch returned %d results", name, len(out))
		}
	}
}

// TestParallelReplayShardFailure injects failures into the shards: a
// configuration the engine rejects fails its shard and with it the
// whole batch, and a simulator panic mid-replay (value verification on
// a recording whose loads contradict its stores) comes back as an
// error rather than crashing the process.
func TestParallelReplayShardFailure(t *testing.T) {
	w, err := workload.Get("strproc")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shardConfigs(w, false)
	main := cfgs[0].Main
	cfgs[3] = core.Config{Main: main, FVC: &fvc.Params{Entries: 256, LineBytes: 64, Bits: 3}, FrequentValues: []uint32{0}}
	out, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{Parallelism: 2})
	var te *harness.TaskError
	if !errors.As(err, &te) || out != nil {
		t.Fatalf("bad config: got %d results, err %v; want a *harness.TaskError and no results", len(out), err)
	}
	if want := planShards(cfgs, 2); !slices.Contains(want[te.Index], 3) {
		t.Errorf("failure reported by shard %d, but config 3 is in another shard (plan %v)", te.Index, want)
	}

	bad := trace.NewRecording()
	bad.Append(trace.Store, 0x1000, 7)
	bad.Append(trace.Load, 0x1000, 8) // contradicts the store
	_, err = MeasureRecordedBatch(bad, shardConfigs(w, false), MeasureOptions{Parallelism: 2, VerifyValues: true})
	if err == nil || !strings.Contains(err.Error(), "sharded replay aborted") {
		t.Fatalf("verify failure: err = %v, want a sharded replay abort", err)
	}
}

// TestPlanShards pins the shard planner: every configuration lands in
// exactly one shard, no shard is empty, the shard count is
// min(n, len(cfgs)), and the greedy split keeps the costliest shard
// within one configuration's cost of the cheapest.
func TestPlanShards(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shardConfigs(w, true)
	for _, n := range []int{1, 2, 3, len(cfgs), len(cfgs) + 5} {
		plan := planShards(cfgs, n)
		if len(plan) != min(n, len(cfgs)) {
			t.Fatalf("n=%d: %d shards", n, len(plan))
		}
		seen := make([]bool, len(cfgs))
		lo, hi, maxCost := -1, 0, 0
		for _, s := range plan {
			if len(s) == 0 {
				t.Fatalf("n=%d: empty shard in %v", n, plan)
			}
			load := 0
			for _, i := range s {
				if seen[i] {
					t.Fatalf("n=%d: config %d in two shards: %v", n, i, plan)
				}
				seen[i] = true
				load += configCost(cfgs[i])
				maxCost = max(maxCost, configCost(cfgs[i]))
			}
			if lo < 0 || load < lo {
				lo = load
			}
			hi = max(hi, load)
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: config %d in no shard: %v", n, i, plan)
			}
		}
		if hi-lo > maxCost {
			t.Errorf("n=%d: shard loads span %d..%d, more than one config (%d) apart: %v", n, lo, hi, maxCost, plan)
		}
	}
}

// TestParallelSteadyReplayZeroAllocs pins the sharded engine's steady
// state. Each shard's loop is its own SystemSet's fused ReplayColumns
// over the shared columns, which must not allocate once warm; and a
// whole sharded batch over a recording twice as long (the same accesses
// replayed twice, so the same pages and frames) must allocate exactly
// as often — shard setup is paid per batch, never per access.
func TestParallelSteadyReplayZeroAllocs(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	main := cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	fvt := ProfileTopAccessed(w, workload.Test, 7)
	cfgs := []core.Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 256, LineBytes: main.LineBytes, Bits: 3}, FrequentValues: fvt},
		{Main: main, FVC: &fvc.Params{Entries: 1024, LineBytes: main.LineBytes, Bits: 3}, FrequentValues: fvt},
		{Main: main, VictimEntries: 8},
	}
	ops, addrs, vals := rec.AccessColumns()
	for si, idx := range planShards(cfgs, 2) {
		var sub []core.Config
		for _, i := range idx {
			sub = append(sub, cfgs[i])
		}
		set, err := core.NewSet(sub)
		if err != nil {
			t.Fatal(err)
		}
		set.ReplayColumns(ops, addrs, vals) // warm: pages and frames exist now
		if allocs := testing.AllocsPerRun(3, func() { set.ReplayColumns(ops, addrs, vals) }); allocs > 0 {
			t.Errorf("shard %d: steady-state replay allocated %.0f times per pass, want 0", si, allocs)
		}
	}

	twice := trace.NewRecording()
	for range 2 {
		for i := range ops {
			twice.Append(ops[i], addrs[i], vals[i])
		}
	}
	twice.AccessColumns() // build the column view outside the measurement
	perBatch := func(r *trace.Recording) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := MeasureRecordedBatch(r, cfgs, MeasureOptions{Parallelism: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if once, two := perBatch(rec), perBatch(twice); two > once {
		t.Errorf("sharded batch allocated %.0f times over a doubled recording vs %.0f over the original, want no growth", two, once)
	}
}
