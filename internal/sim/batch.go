package sim

import (
	"fmt"
	"time"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// MeasureRecordedBatch is the fused sweep engine: it replays rec
// exactly once, driving one core.System per configuration in lockstep
// through a core.SystemSet, and returns per-configuration results in
// cfgs order. One column decode and one architectural memory image are
// shared by all K configurations, so a K-point sweep pays the trace
// traversal once instead of K times.
//
// Hook semantics match MeasureRecorded exactly — the columns are
// chunked at every warmup / sampling / audit boundary (in access
// counts, which the access-only column projection makes plain slice
// offsets), so snapshots, FVC samples and audits observe each system
// at the same access boundaries as a per-config replay, and the
// resulting Stats are bit-identical to MeasureRecorded for every
// configuration. Unlike the per-config path, a failure (audit
// violation or simulator panic) aborts the whole batch.
//
// With opt.Parallelism > 1 and more than one configuration, the
// configurations are sharded across up to Parallelism workers, each
// running this same fused pass over the shared columns (see
// measureSharded); results are bit-identical either way.
func MeasureRecordedBatch(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
	if err := ctxErr(opt.Ctx, "batch replay"); err != nil {
		return nil, err
	}
	if opt.Parallelism > 1 && len(cfgs) > 1 {
		return measureSharded(rec, cfgs, opt)
	}
	all := make([]int, len(cfgs))
	for i := range all {
		all[i] = i
	}
	return measureBatch(rec, cfgs, all, opt)
}

// measureBatch is the serial fused pass over the configurations
// cfgs[idx[0]], cfgs[idx[1]], ... in that order. Error messages name
// configurations by their position in cfgs.
func measureBatch(rec *trace.Recording, cfgs []core.Config, idx []int, opt MeasureOptions) ([]MeasureResult, error) {
	start := time.Now()
	cc := make([]core.Config, len(idx))
	for i, j := range idx {
		cc[i] = cfgs[j]
		cc[i].VerifyValues = opt.VerifyValues
	}
	if opt.Label != "" {
		span := obs.Begin(fmt.Sprintf("batch:%s[%d]", opt.Label, len(cc)))
		defer span.Done()
	}
	set, err := core.NewSet(cc)
	if err != nil {
		return nil, err
	}
	systems := set.Systems()
	k := len(systems)
	anyFVC := false
	for _, s := range systems {
		if s.FVC() != nil {
			anyFVC = true
			break
		}
	}
	sampleHook := opt.SampleEvery > 0 && anyFVC

	warm := make([]core.Stats, k)
	fracSum := make([]float64, k)
	occSum := make([]float64, k)
	var samples int

	ops, addrs, vals := rec.AccessColumns()
	total := uint64(len(ops))

	replay := func() error {
		var n uint64
		for n < total {
			if err := ctxErr(opt.Ctx, "batch replay"); err != nil {
				return err
			}
			// Fuse-replay up to the nearest hook boundary; with no
			// hooks armed (and no context) this is one chunk to the end
			// of the stream. A cancellable replay additionally bounds
			// chunks at cancelCheckEvery accesses so the context check
			// above runs at a useful cadence.
			next := total
			if opt.Ctx != nil && n+cancelCheckEvery < next {
				next = n + cancelCheckEvery
			}
			if opt.WarmupAccesses > n && opt.WarmupAccesses < next {
				next = opt.WarmupAccesses
			}
			if sampleHook {
				if b := n - n%opt.SampleEvery + opt.SampleEvery; b < next {
					next = b
				}
			}
			if opt.AuditEvery > 0 {
				if b := n - n%opt.AuditEvery + opt.AuditEvery; b < next {
					next = b
				}
			}
			set.ReplayColumns(ops[n:next], addrs[n:next], vals[n:next])
			n = next
			if opt.WarmupAccesses > 0 && n == opt.WarmupAccesses {
				for i, s := range systems {
					warm[i] = s.Stats()
				}
			}
			if sampleHook && n%opt.SampleEvery == 0 {
				for i, s := range systems {
					if f := s.FVC(); f != nil {
						fracSum[i] += f.FrequentFraction()
						occSum[i] += float64(f.ValidEntries()) / float64(f.Params().Entries)
					}
				}
				samples++
			}
			if opt.AuditEvery > 0 && n%opt.AuditEvery == 0 {
				for i, s := range systems {
					if aerr := s.AuditInvariants(); aerr != nil {
						return fmt.Errorf("config %d: %w", idx[i], aerr)
					}
				}
			}
		}
		return nil
	}
	// Same recover boundary as MeasureRecorded: simulator asserts
	// panic, and one corrupt replay must not take down a whole sweep.
	if rerr := harness.Recover(replay); rerr != nil {
		return nil, fmt.Errorf("sim: batch replay aborted: %w", rerr)
	}
	if opt.AuditEvery > 0 {
		for i, s := range systems {
			if aerr := s.AuditInvariants(); aerr != nil {
				return nil, fmt.Errorf("sim: final audit (config %d): %w", idx[i], aerr)
			}
		}
	}

	out := make([]MeasureResult, k)
	for i, s := range systems {
		out[i].Stats = s.Stats().Minus(warm[i])
		if samples > 0 && s.FVC() != nil {
			out[i].FVCFreqFrac = fracSum[i] / float64(samples)
			out[i].FVCOccupancy = occSum[i] / float64(samples)
		}
	}
	if opt.Label != "" {
		if d := time.Since(start); d > 0 {
			// System-events per second: one fused pass drives k systems
			// through every access, so the batch engine's effective
			// throughput is total×k events over the pass wall-clock.
			obs.Default.Gauge(obs.Labeled("batch_events_per_sec", "workload", opt.Label)).
				Set(float64(total) * float64(k) / d.Seconds())
		}
	}
	return out, nil
}

// MeasureBatch is MeasureRecordedBatch driven from the shared
// recording cache: the sweep's one execution of (w, scale) fans the
// whole configuration batch through a single fused replay pass.
func MeasureBatch(w workload.Workload, scale workload.Scale, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
	rec, err := Recordings.Get(w, scale)
	if err != nil {
		return nil, err
	}
	return MeasureRecordedBatch(rec, cfgs, opt)
}

// MissAttributionSets is MissAttributionRecorded for several value
// sets at once: one replay pass classifies every miss against each
// set, instead of re-simulating the hierarchy per set.
func MissAttributionSets(rec *trace.Recording, cfg core.Config, sets [][]uint32) (total uint64, attributed []uint64, err error) {
	sys, err := core.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	lookup := make([]map[uint32]struct{}, len(sets))
	for i, values := range sets {
		lookup[i] = make(map[uint32]struct{}, len(values))
		for _, v := range values {
			lookup[i][v] = struct{}{}
		}
	}
	attributed = make([]uint64, len(sets))
	run := func() error {
		ops, addrs, vals := rec.AccessColumns()
		for i, op := range ops {
			if sys.Access(op, addrs[i], vals[i]) == core.Miss {
				total++
				for si, set := range lookup {
					if _, ok := set[vals[i]]; ok {
						attributed[si]++
					}
				}
			}
		}
		return nil
	}
	if rerr := harness.Recover(run); rerr != nil {
		return 0, nil, fmt.Errorf("sim: miss attribution aborted: %w", rerr)
	}
	return total, attributed, nil
}
