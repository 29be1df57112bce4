// Package sim drives workloads through the cache hierarchy: a
// profiling pass identifies a workload's frequently accessed values
// (the paper's profile-based FVT selection), and a measurement pass
// replays the workload against a configured core.System. A small
// parallel runner fans independent configurations across goroutines
// for the experiment sweeps.
package sim

import (
	"context"
	"fmt"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/memsim"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// ProfileTopAccessed returns w's k most frequently accessed values at
// scale (the FVT a profile-directed compiler/loader would install).
// Results come from the singleflight Profiles cache, so a sweep that
// derives the same FVT for many configuration points scans the
// recording's histogram once; the cache itself replays the shared
// recording of w, so profiling adds no workload execution either.
// The returned slice is shared and must not be mutated.
func ProfileTopAccessed(w workload.Workload, scale workload.Scale, k int) []uint32 {
	return Profiles.TopAccessed(w, scale, k)
}

// MeasureOptions tunes a measurement run.
type MeasureOptions struct {
	// SampleEvery samples the FVC's frequent-value content every this
	// many accesses (0 disables sampling). Used for Figure 11.
	SampleEvery uint64
	// VerifyValues enables the hierarchy's value-verification asserts.
	VerifyValues bool
	// WarmupAccesses excludes the first N accesses from the reported
	// statistics (the hierarchy still simulates them, so its state is
	// warm when measurement begins). 0 measures everything, matching
	// the paper's whole-execution accounting.
	WarmupAccesses uint64
	// AuditEvery runs core.(*System).AuditInvariants every this many
	// accesses (0 disables auditing). An audit failure aborts the
	// measurement with the *core.AuditError describing every violation.
	AuditEvery uint64
	// Label names the measurement in telemetry (phase spans and
	// per-workload throughput gauges). Sweeps set it to the workload
	// name; empty skips the span, keeping tight per-config loops out of
	// the phase tree.
	Label string
	// Ctx, when non-nil, cancels the measurement cooperatively: the
	// replay paths check it every cancelCheckEvery accesses (and at
	// every hook boundary) and abort with the context's error. Live
	// workload execution cannot be preempted mid-Run, so Measure only
	// observes it at the run boundary. The fvcache facade and the
	// fvcached service wire per-request deadlines here.
	Ctx context.Context

	// Parallelism, when greater than 1, shards MeasureRecordedBatch's
	// configurations across up to Parallelism workers, each replaying
	// the shared recording through the serial fused engine, with
	// results bit-identical to a serial batch. A single configuration
	// cannot be sharded and replays serially; 0 and 1 replay serially.
	Parallelism int
}

// cancelCheckEvery is how many accesses a cancellable replay drives
// between context checks: coarse enough to keep the steady-state loops
// allocation-free and branch-cheap, fine enough that a multi-second
// batch replay honors a deadline within tens of milliseconds.
const cancelCheckEvery = 1 << 20

// ctxErr returns the context's error wrapped as a measurement abort,
// or nil. A nil ctx never cancels.
func ctxErr(ctx context.Context, path string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: %s cancelled: %w", path, err)
	}
	return nil
}

// MeasureResult is the outcome of one measurement run.
type MeasureResult struct {
	Stats core.Stats
	// FVCFreqFrac is the average fraction of frequent (non-escape)
	// codes across valid FVC entries over all samples; 0 when the
	// config has no FVC or sampling was disabled.
	FVCFreqFrac float64
	// FVCOccupancy is the average fraction of FVC entries valid.
	FVCOccupancy float64
}

// Measure runs w at scale against a hierarchy built from cfg.
func Measure(w workload.Workload, scale workload.Scale, cfg core.Config, opt MeasureOptions) (MeasureResult, error) {
	if err := ctxErr(opt.Ctx, "measurement"); err != nil {
		return MeasureResult{}, err
	}
	obs.LiveMeasures.Inc()
	cfg.VerifyValues = opt.VerifyValues
	sys, err := core.New(cfg)
	if err != nil {
		return MeasureResult{}, err
	}
	var sink trace.Sink = sys
	var fracSum, occSum float64
	var samples int
	var warmupStats core.Stats
	needHook := opt.WarmupAccesses > 0 || opt.AuditEvery > 0 ||
		(opt.SampleEvery > 0 && sys.FVC() != nil)
	if needHook {
		var n uint64
		sink = trace.SinkFunc(func(e trace.Event) {
			sys.Emit(e)
			if !e.Op.IsAccess() {
				return
			}
			n++
			if opt.WarmupAccesses > 0 && n == opt.WarmupAccesses {
				warmupStats = sys.Stats()
			}
			if opt.SampleEvery > 0 && sys.FVC() != nil && n%opt.SampleEvery == 0 {
				fracSum += sys.FVC().FrequentFraction()
				occSum += float64(sys.FVC().ValidEntries()) / float64(sys.FVC().Params().Entries)
				samples++
			}
			if opt.AuditEvery > 0 && n%opt.AuditEvery == 0 {
				if aerr := sys.AuditInvariants(); aerr != nil {
					// Workloads cannot be cancelled mid-Run; the panic
					// aborts the run and Measure's recover boundary turns
					// it back into this error.
					panic(aerr)
				}
			}
		})
	}
	// Simulation code asserts via panic (VerifyValues, the periodic
	// audit, protocol invariants); the recover boundary converts those
	// into errors so one corrupt run cannot take down a whole sweep.
	env := memsim.NewEnv(sink)
	if rerr := harness.Recover(func() error { w.Run(env, scale); return nil }); rerr != nil {
		return MeasureResult{}, fmt.Errorf("sim: measurement aborted: %w", rerr)
	}
	if opt.AuditEvery > 0 {
		if aerr := sys.AuditInvariants(); aerr != nil {
			return MeasureResult{}, fmt.Errorf("sim: final audit: %w", aerr)
		}
	}
	res := MeasureResult{Stats: sys.Stats().Minus(warmupStats)}
	if samples > 0 {
		res.FVCFreqFrac = fracSum / float64(samples)
		res.FVCOccupancy = occSum / float64(samples)
	}
	return res, nil
}

// MissAttribution runs w at scale against a plain main cache and
// returns the total misses and the misses whose accessed value is in
// values — the paper's Figure 4 measurement.
func MissAttribution(w workload.Workload, scale workload.Scale, cfg core.Config, values []uint32) (total, attributed uint64, err error) {
	sys, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	set := make(map[uint32]struct{}, len(values))
	for _, v := range values {
		set[v] = struct{}{}
	}
	sink := trace.SinkFunc(func(e trace.Event) {
		if !e.Op.IsAccess() {
			return
		}
		if sys.Access(e.Op, e.Addr, e.Value) == core.Miss {
			total++
			if _, ok := set[e.Value]; ok {
				attributed++
			}
		}
	})
	env := memsim.NewEnv(sink)
	if rerr := harness.Recover(func() error { w.Run(env, scale); return nil }); rerr != nil {
		return 0, 0, fmt.Errorf("sim: miss attribution aborted: %w", rerr)
	}
	return total, attributed, nil
}

// Parallel fan-out lives in harness.Map: one panic-isolating,
// context-aware parallel-map implementation serves the sweeps, the
// experiment pmap and any ad-hoc caller (the former sim.ParallelMap
// wrapper is gone).
