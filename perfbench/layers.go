package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/mrc"
	"fvcache/internal/resultcache"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
)

// timed runs fn in a span and credits work units to the span's name.
func (b *bench) timed(name, req string, parent int, work float64, fn func()) time.Duration {
	b.work[name] += work
	return b.tr.do(name, req, parent, fn)
}

// Probe geometries: the paper's baseline 16 KB direct-mapped cache
// with 32-byte lines, alone and with each companion structure.
var (
	probeDM     = fvcache.CacheParams{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	probeL2     = fvcache.CacheParams{SizeBytes: 256 << 10, LineBytes: 32, Assoc: 4}
	probeFVC    = fvcache.FVCParams{Entries: 1024, LineBytes: 32, Bits: 3}
	probeDMSets = []int{128, 256, 512, 1024, 2048, 4096, 8192} // 4 KB..256 KB DMCs
)

// probeReps is how many times each single-config probe runs.
const probeReps = 3

// engineLayers times each engine layer's public call on every program
// and records the layer metrics that are ratios of outcomes.
func (b *bench) engineLayers(o *outcome, progs []program, grids [][]api.Config) error {
	var dmMisses, fvcHits float64
	for i, p := range progs {
		req := "probe:" + p.name
		root := b.tr.begin("probe", req, -1)
		acc := float64(p.rec.Accesses())
		var err error
		b.timed("trace.walk", req, root, acc, func() { p.rec.Replay(trace.Discard) })
		ch := p.rec.Chunked(0)
		b.timed("trace.decode", req, root, acc, func() {
			var s trace.ChunkScratch
			for c := 0; c < ch.Chunks() && err == nil; c++ {
				_, _, _, err = ch.DecodeChunk(c, &s)
			}
		})
		if err != nil {
			return fmt.Errorf("%s: decode: %w", p.name, err)
		}

		// The companion structures are reported as differences from the
		// DMC-only probe, so noise would swamp them: each probe runs
		// probeReps times, interleaved, and its fastest run counts.
		l2, fp := probeL2, probeFVC
		probes := []struct {
			name string
			cfg  fvcache.Config
		}{
			{"core.dm", fvcache.Config{Main: probeDM}},
			{"core.victim", fvcache.Config{Main: probeDM, VictimEntries: 8}},
			{"core.l2", fvcache.Config{Main: probeDM, L2: &l2}},
			{"fvc", fvcache.Config{Main: probeDM, FVC: &fp, FrequentValues: p.profile[:fvcache.MaxFVTValues(fp.Bits)]}},
		}
		results := make([]sim.MeasureResult, len(probes))
		best := make([]time.Duration, len(probes))
		for rep := 0; rep < probeReps; rep++ {
			for k, pr := range probes {
				d := b.tr.do(pr.name, req, root, func() { results[k], err = sim.MeasureRecorded(p.rec, pr.cfg, sim.MeasureOptions{}) })
				if err != nil {
					return fmt.Errorf("%s: probe replay: %w", p.name, err)
				}
				if rep == 0 || d < best[k] {
					best[k] = d
				}
			}
		}
		for k, pr := range probes {
			b.fastest[pr.name] += best[k]
			b.work[pr.name] += acc
		}
		dm, fv := results[0], results[3]
		dmMisses += float64(dm.Stats.Misses)
		fvcHits += float64(fv.Stats.FVCHits)

		cfgs := materialize(halfGrid(grids[i]), p.profile)
		cfgAcc := float64(len(cfgs)) * acc
		var serial, par []sim.MeasureResult
		b.timed("sim.batch", req, root, cfgAcc, func() {
			serial, err = sim.MeasureRecordedBatch(p.rec, cfgs, sim.MeasureOptions{})
		})
		if err == nil {
			b.timed("sim.parallel", req, root, cfgAcc, func() {
				par, err = sim.MeasureRecordedBatch(p.rec, cfgs, sim.MeasureOptions{Parallelism: b.nproc})
			})
		}
		if err != nil {
			return fmt.Errorf("%s: probe batch: %w", p.name, err)
		}
		for j := range serial {
			if serial[j] != par[j] {
				o.mismatch("%s: config %d serial batch %+v != parallel %+v", p.name, j, serial[j].Stats, par[j].Stats)
			}
		}

		b.timed("mrc.fa", req, root, acc, func() {
			_, err = mrc.Analyze(p.rec, mrc.Options{LineBytes: 32, MaxSizeBytes: 256 << 10})
		})
		if err == nil {
			b.timed("mrc.dm", req, root, acc, func() {
				_, err = mrc.Analyze(p.rec, mrc.Options{LineBytes: 32, MaxSizeBytes: 256 << 10, SetCounts: probeDMSets, MaxAssoc: 1})
			})
		}
		if err != nil {
			return fmt.Errorf("%s: probe mrc: %w", p.name, err)
		}
		b.tr.end(root)
	}
	o.layers["fvc.hit_ratio"] = metric{fvcHits / dmMisses, "ratio"}
	o.layers["trace.compressed_bytes_per_access"] = metric{bytesPerAccess(progs), "B/access"}
	return nil
}

// serviceLayers times the result cache and the wire API in-process,
// with entries and bodies the size the service uses: one result per
// cached config, eight configs per request.
func (b *bench) serviceLayers(grid []api.Config, sample []fvcache.MeasureResult) error {
	const keys, reps = 256, 2000
	req := "probe:service"
	root := b.tr.begin("probe", req, -1)
	defer b.tr.end(root)

	dir, err := os.MkdirTemp(b.workdir, "resultcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.Open(resultcache.Options{Dir: dir, PromoteAfter: 1})
	if err != nil {
		return err
	}
	key := func(i int) resultcache.Key {
		return resultcache.Key{Workload: "probe", Scale: "test", ConfigFP: fmt.Sprintf("cfg-%d", i), Engine: fvcache.EngineVersion}
	}
	entry := func(i int) []sim.MeasureResult { return []sim.MeasureResult{sample[i%len(sample)]} }
	b.timed("resultcache.put", req, root, keys, func() {
		for i := 0; i < keys; i++ {
			c.Put(key(i), entry(i))
		}
	})
	for i := 0; i < keys; i++ { // the first hit promotes to disk
		c.Get(key(i))
	}
	misses := 0
	b.timed("resultcache.mem_get", req, root, keys, func() {
		for i := 0; i < keys; i++ {
			if _, ok := c.Get(key(i)); !ok {
				misses++
			}
		}
	})
	disk, err := resultcache.Open(resultcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	b.timed("resultcache.disk_get", req, root, keys, func() {
		for i := 0; i < keys; i++ {
			if _, tier := disk.GetTier(key(i)); tier != resultcache.TierDisk {
				misses++
			}
		}
	})
	if misses > 0 {
		return fmt.Errorf("result cache probe missed %d of %d lookups", misses, 2*keys)
	}

	b.timed("api.fingerprint", req, root, reps*float64(len(grid)), func() {
		for r := 0; r < reps; r++ {
			for _, cfg := range grid {
				_ = cfg.Normalized().Fingerprint()
			}
		}
	})
	mreq := api.MeasureRequest{Workload: "probe", Scale: "test", Configs: grid[:8]}
	resp := api.MeasureResponse{Workload: "probe", Scale: "test", Batch: api.BatchInfo{Requests: 1, Configs: 8}}
	for i := 0; i < 8; i++ {
		r := sample[i%len(sample)]
		resp.Results = append(resp.Results, api.Result{Stats: r.Stats, Accesses: r.Stats.Accesses(), MissRate: r.Stats.MissRate(), TrafficBytes: r.Stats.TrafficBytes()})
	}
	b.timed("api.codec", req, root, reps, func() {
		for r := 0; r < reps && err == nil; r++ {
			err = roundTrip(&mreq, &api.MeasureRequest{})
			if err == nil {
				err = roundTrip(&resp, &api.MeasureResponse{})
			}
		}
	})
	return err
}

func roundTrip(in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// layerUnits maps each span-timed layer metric to the span it divides
// and the unit scale of the result.
var layerUnits = []struct {
	metric, span, unit string
	scale              float64 // ns per result unit
}{
	{"workload.record_ns_per_access", "workload.record", "ns", 1},
	{"sim.profile_ns_per_access", "sim.profile", "ns", 1},
	{"trace.compress_ns_per_access", "trace.compress", "ns", 1},
	{"trace.walk_ns_per_access", "trace.walk", "ns", 1},
	{"trace.decode_ns_per_access", "trace.decode", "ns", 1},
	{"sim.batch_ns_per_cfg_access", "sim.batch", "ns", 1},
	{"sim.parallel_ns_per_cfg_access", "sim.parallel", "ns", 1},
	{"mrc.fa_ns_per_access", "mrc.fa", "ns", 1},
	{"mrc.dm_ns_per_access", "mrc.dm", "ns", 1},
	{"resultcache.put_us", "resultcache.put", "us", 1e3},
	{"resultcache.mem_get_us", "resultcache.mem_get", "us", 1e3},
	{"resultcache.disk_get_us", "resultcache.disk_get", "us", 1e3},
	{"api.fingerprint_us", "api.fingerprint", "us", 1e3},
	{"api.codec_us", "api.codec", "us", 1e3},
}

// spanLayers turns the spans' self times into the per-layer metrics.
func (b *bench) spanLayers(o *outcome) {
	self := b.tr.selfByName()
	per := func(span string) float64 {
		if b.work[span] == 0 {
			return 0
		}
		return float64(self[span]) / b.work[span]
	}
	for _, l := range layerUnits {
		o.layers[l.metric] = metric{per(l.span) / l.scale, l.unit}
	}
	// Companion structures cost what the probe with them costs beyond
	// the DMC-only probe over the same accesses.
	best := func(span string) float64 {
		if b.work[span] == 0 {
			return 0
		}
		return float64(b.fastest[span]) / b.work[span]
	}
	o.layers["core.dm_ns_per_access"] = metric{best("core.dm"), "ns"}
	for _, l := range [][2]string{{"core.victim_ns_per_access", "core.victim"}, {"core.l2_ns_per_access", "core.l2"}, {"fvc.ns_per_access", "fvc"}} {
		o.layers[l[0]] = metric{best(l[1]) - best("core.dm"), "ns"}
	}
	if p := per("sim.parallel"); p > 0 {
		o.layers["sim.parallel_speedup"] = metric{per("sim.batch") / p, "ratio"}
	}
	o.info["dominant_layer"] = dominant(o)
}

// dominant names the serving stage that holds most of a workload's
// time: the one with the largest median, the stages that only contain
// others excluded.
func dominant(o *outcome) string {
	best, bestV := "", 0.0
	for _, st := range append([]string{"analyze"}, histStages...) {
		if v := o.layers["serve.stage."+st+"_p50_us"].Value; v > bestV {
			best, bestV = st, v
		}
	}
	return best
}

// perLayer lists every per-layer metric with its unit, in report
// order. A traced run reports all of them; a stage the workload does
// not reach reads 0.
var perLayer = func() [][2]string {
	out := [][2]string{}
	for _, l := range layerUnits {
		out = append(out, [2]string{l.metric, l.unit})
	}
	out = append(out,
		[2]string{"core.dm_ns_per_access", "ns"},
		[2]string{"core.victim_ns_per_access", "ns"},
		[2]string{"core.l2_ns_per_access", "ns"},
		[2]string{"fvc.ns_per_access", "ns"},
		[2]string{"fvc.hit_ratio", "ratio"},
		[2]string{"trace.compressed_bytes_per_access", "B/access"},
		[2]string{"sim.parallel_speedup", "ratio"},
		[2]string{"resultcache.hit_ratio", "ratio"},
		[2]string{"serve.coalesce_ratio", "ratio"},
		[2]string{"serve.batch_configs", "count"},
		[2]string{"gen.late_p99_ms", "ms"},
		[2]string{"trace_overhead", "ratio"},
	)
	for _, st := range append(append([]string{}, histStages...), traceStages...) {
		out = append(out, [2]string{"serve.stage." + st + "_p50_us", "us"}, [2]string{"serve.stage." + st + "_p99_us", "us"})
	}
	return out
}()

// probeLayers times every engine and service layer in-process on the
// workload's programs and grids.
func (b *bench) probeLayers(o *outcome, progs []program, grids [][]api.Config) error {
	if err := b.engineLayers(o, progs, grids); err != nil {
		return err
	}
	sample, err := sim.MeasureRecordedBatch(progs[0].rec, materialize(grids[0], progs[0].profile), sim.MeasureOptions{})
	if err != nil {
		return err
	}
	return b.serviceLayers(grids[0], sample)
}
