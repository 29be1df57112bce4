package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// Config-sharded replay (MeasureOptions.Parallelism).
//
// A sweep's configurations are independent: each one's statistics are
// a function of the recording and its own configuration alone. So a
// parallel batch splits the configurations, not the trace. The configs
// are dealt into up to Parallelism shards balanced by a static cost
// estimate, and every shard runs the serial fused batch over the
// recording's shared read-only access columns with its own SystemSet
// and memory image. Results are scattered back into cfgs order.
//
// Every shard is the serial engine, so the results are bit-identical
// to a serial batch by construction: no seams, no checkpoints, no
// speculation, and no configuration shape (online FVT included) that
// needs a fallback. The shards run under harness.Map, so a panic or an
// audit failure in one shard fails the batch and cancels the others.

// configCost is a static estimate of one configuration's share of a
// fused replay, in units of half a fused direct-mapped probe. Members
// outside the fused probe shape (associative main caches, value
// verification) run their own per-access protocol step; online FVT
// identification adds a sketch update on every access, which costs
// tens of probes; an FVC, a victim cache or an L2 adds work on main-
// cache misses. The weights are rough per-access timings of each shape
// at test scale.
func configCost(c core.Config) int {
	cost := 2
	if c.Main.Assoc > 1 || c.VerifyValues {
		cost += 4
	}
	if c.OnlineFVTEvery > 0 {
		cost += 64
	}
	if c.FVC != nil {
		cost += 2
	}
	if c.VictimEntries > 0 {
		cost++
	}
	if c.L2 != nil {
		cost++
	}
	return cost
}

// planShards deals cfgs into min(n, len(cfgs)) shards, greedily
// placing the most expensive remaining configuration on the least
// loaded shard (ties go to the lower index, so the plan is
// deterministic). Each shard lists its positions in cfgs, ascending.
func planShards(cfgs []core.Config, n int) [][]int {
	n = min(n, len(cfgs))
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(configCost(cfgs[b]), configCost(cfgs[a]))
	})
	shards := make([][]int, n)
	load := make([]int, n)
	for _, i := range order {
		s := 0
		for j := 1; j < n; j++ {
			if load[j] < load[s] {
				s = j
			}
		}
		shards[s] = append(shards[s], i)
		load[s] += configCost(cfgs[i])
	}
	for _, s := range shards {
		slices.Sort(s)
	}
	return shards
}

// measureSharded is MeasureRecordedBatch with opt.Parallelism > 1 and
// more than one configuration.
func measureSharded(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
	start := time.Now()
	if opt.Label != "" {
		span := obs.Begin(fmt.Sprintf("parallel:%s[%d]", opt.Label, len(cfgs)))
		defer span.Done()
	}
	obs.ParallelReplays.Inc()
	plan := planShards(cfgs, opt.Parallelism)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	parts, err := harness.Map(ctx, len(plan), harness.MapOptions{Workers: len(plan)},
		func(ctx context.Context, si int) ([]MeasureResult, error) {
			obs.ShardReplays.Inc()
			o := opt
			o.Label = "" // the sharded batch owns the span and gauge
			o.Ctx = ctx  // a failing sibling cancels this shard
			return measureBatch(rec, cfgs, plan[si], o)
		})
	if err != nil {
		return nil, fmt.Errorf("sim: sharded replay aborted: %w", err)
	}
	out := make([]MeasureResult, len(cfgs))
	for si, idx := range plan {
		for j, i := range idx {
			out[i] = parts[si][j]
		}
	}
	if opt.Label != "" {
		if d := time.Since(start); d > 0 {
			obs.Default.Gauge(obs.Labeled("parallel_events_per_sec", "workload", opt.Label)).
				Set(float64(rec.Accesses()) * float64(len(cfgs)) / d.Seconds())
		}
	}
	return out, nil
}
