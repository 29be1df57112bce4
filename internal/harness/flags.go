package harness

import (
	"context"
	"flag"
	"time"

	"fvcache/internal/workload"
)

// FlagSet selects which of the shared cmd/ flags a binary registers.
type FlagSet uint

const (
	// FlagScale registers -scale (input scale: test, train or ref).
	FlagScale FlagSet = 1 << iota
	// FlagWorkers registers -workers (simulation/replay parallelism).
	FlagWorkers
	// FlagTimeout registers -timeout (abort after this duration).
	FlagTimeout
	// FlagOut registers -out (per-artifact output directory).
	FlagOut
)

// CommonFlags is the flag block shared by the cmd/ binaries: every
// binary registers the same names with the same help text and default
// semantics, instead of five drifting copies. Register it next to the
// obs flag block:
//
//	cf := harness.AddCommonFlags(flag.CommandLine, harness.FlagScale|harness.FlagTimeout, "ref")
//	of := obs.AddFlags(flag.CommandLine)
//	flag.Parse()
type CommonFlags struct {
	// ScaleName is the raw -scale value; resolve it with Scale().
	ScaleName string
	// Workers is -workers (0 = all cores): the worker-pool width for
	// simulation fan-out, config-sharded replay, and MRC per-set stack
	// sharding alike.
	Workers int
	// Timeout is -timeout (0 = none).
	Timeout time.Duration
	// Out is -out (empty = stdout).
	Out string
}

// AddCommonFlags registers the selected shared flags on fs.
// scaleDefault is the -scale default ("ref" for the paper binaries,
// "test" for quick tools); ignored unless FlagScale is selected.
func AddCommonFlags(fs *flag.FlagSet, which FlagSet, scaleDefault string) *CommonFlags {
	cf := &CommonFlags{}
	if which&FlagScale != 0 {
		fs.StringVar(&cf.ScaleName, "scale", scaleDefault, "input scale: test, train or ref")
	}
	if which&FlagWorkers != 0 {
		fs.IntVar(&cf.Workers, "workers", 0,
			"parallelism: simulation fan-out, config-sharded replay, and MRC stack sharding (0 = all cores)")
	}
	if which&FlagTimeout != 0 {
		fs.DurationVar(&cf.Timeout, "timeout", 0, "abort the run after this duration (0 = none)")
	}
	if which&FlagOut != 0 {
		fs.StringVar(&cf.Out, "out", "", "write one file per artifact into this directory")
	}
	return cf
}

// Scale resolves the -scale flag.
func (cf *CommonFlags) Scale() (workload.Scale, error) {
	return workload.ParseScale(cf.ScaleName)
}

// Context returns the binary's root context: cancelled by
// SIGINT/SIGTERM and by the -timeout deadline.
func (cf *CommonFlags) Context(parent context.Context) (context.Context, context.CancelFunc) {
	return SignalContext(parent, cf.Timeout)
}
