package main

import (
	"context"
	"fmt"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// setupRounds is how many times a run sets up; setup_s is the fastest.
const setupRounds = 5

// program is one registered workload prepared at test scale.
type program struct {
	name    string
	rec     *trace.Recording
	profile []uint32
}

// prepare records, profiles and compresses every registered program
// at test scale through the process-wide caches the facade uses. These
// are the lazy per-recording costs the engine pays once before any
// measurement; traced runs time each of them.
func (b *bench) prepare() ([]program, error) {
	ctx := context.Background()
	var progs []program
	for _, w := range workload.All() {
		req := "setup:" + w.Name()
		p := program{name: w.Name()}
		var err error
		b.tr.do("workload.record", req, -1, func() { p.rec, err = sim.Recordings.Get(w, fvcache.Test) })
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", w.Name(), err)
		}
		b.tr.do("sim.profile", req, -1, func() {
			p.profile, err = fvcache.Profile(ctx, fvcache.ProfileRequest{Workload: w.Name(), Scale: fvcache.Test, K: 16})
		})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name(), err)
		}
		b.tr.do("trace.compress", req, -1, func() { p.rec.Chunked(0) })
		for _, span := range []string{"workload.record", "sim.profile", "trace.compress"} {
			b.work[span] += float64(p.rec.Accesses())
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// bytesPerAccess is the compressed copies' size per access.
func bytesPerAccess(progs []program) float64 {
	var bytes, acc float64
	for _, p := range progs {
		bytes += float64(p.rec.Chunked(0).CompressedBytes())
		acc += float64(p.rec.Accesses())
	}
	return bytes / acc
}

// enginePass computes in-process what a user of the library gets: per
// program, one fused fvcache.MeasureBatch over its grid with every
// core, then one fvcache.MissRateCurves.
func (b *bench) enginePass(progs []program, grids [][]api.Config, mrcs []fvcache.MRCRequest) ([][]fvcache.MeasureResult, []*fvcache.MRCResult, error) {
	ctx := context.Background()
	res := make([][]fvcache.MeasureResult, len(progs))
	curves := make([]*fvcache.MRCResult, len(progs))
	for i, p := range progs {
		req := "oracle:" + p.name
		var err error
		b.tr.do("fvcache.MeasureBatch", req, -1, func() {
			res[i], err = fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{
				Workload: p.name, Scale: fvcache.Test, Configs: materialize(grids[i], p.profile), Options: fvcache.Options{Parallelism: b.nproc}})
		})
		if err == nil {
			b.tr.do("fvcache.MissRateCurves", req, -1, func() { curves[i], err = fvcache.MissRateCurves(ctx, mrcs[i]) })
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: in-process check: %w", p.name, err)
		}
	}
	return res, curves, nil
}
