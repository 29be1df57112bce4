package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/client"
	"fvcache/internal/obs"
)

const (
	// hotRate is serve-hot's offered load in requests per second:
	// about half of what nproc connections carry when every hit waits
	// out the 10 ms coalescing window.
	hotRate = 80.0
	// hotLimit and coldLimit are the latency limits of
	// within_limit_ratio.
	hotLimit  = 50 * time.Millisecond
	coldLimit = 2 * time.Second
	// lateBound invalidates an open-loop run whose generator's own
	// lateness p99 exceeds it: half the latency limit, beyond which
	// the generator, not the server, would decide within_limit_ratio.
	// A quiet 2-core host stays near 1 ms, a busy shared one near 10.
	lateBound = hotLimit / 2
	// mrcShare is the share of serve-hot's requests that ask for
	// miss-rate curves.
	mrcShare = 0.15
	// coldChecked is how many of serve-cold's first measure and MRC
	// answers the check re-computes.
	coldChecked, coldMRCChecked = 24, 6
)

// stages are the serving stages reported per layer: the first six
// from fvcached's serve_stage_us histograms, the rest from its flight
// recorder's spans.
var (
	histStages  = []string{"parse", "coalesce_wait", "queue_wait", "cache_probe", "replay", "encode"}
	traceStages = []string{"batch_wait", "flight_wait", "analyze"}
)

// request is one generated call: a measure or an MRC request.
type request struct {
	measure *api.MeasureRequest
	mrc     *api.MRCRequest
	prog    int // index into serveRun.progs
}

// reply is what the server answered to one request.
type reply struct {
	req     request
	resp    *api.MeasureResponse
	points  []api.MRCPoint
	summary *api.MRCSummary
	err     error
	lat     time.Duration
	late    time.Duration
}

func wireMRC(r fvcache.MRCRequest) *api.MRCRequest {
	return &api.MRCRequest{Workload: r.Workload, Scale: r.Scale.String(), LineBytes: r.LineBytes, MaxSizeBytes: r.MaxSizeBytes, SetCounts: r.SetCounts}
}

// send issues one request; in traced runs it is a span whose request
// ID the server records too.
func (b *bench) send(s *server, r request, id string) reply {
	rep := reply{req: r}
	opts := []client.CallOption{client.WithTraceID(id)}
	ctx := context.Background()
	if r.measure != nil {
		b.tr.do("client.measure", id, -1, func() { rep.resp, rep.err = s.cli.Measure(ctx, *r.measure, opts...) })
		return rep
	}
	b.tr.do("client.mrc", id, -1, func() {
		rep.summary, rep.err = s.cli.MRC(ctx, *r.mrc, func(p api.MRCPoint) error {
			rep.points = append(rep.points, p)
			return nil
		}, opts...)
	})
	return rep
}

// sendAll issues requests on nproc goroutines and waits for them.
func (b *bench) sendAll(s *server, reqs []request, tag string) []reply {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				out[i] = b.send(s, reqs[i], fmt.Sprintf("%s-%d", tag, i))
			}
		}()
	}
	wg.Wait()
	return out
}

// scheduled is a request with its due offset from the run's start.
type scheduled struct {
	at  time.Duration
	req request
}

// openLoop sends each request at its due time on at most nproc
// goroutines and connections, timing it from that due time.
func (b *bench) openLoop(s *server, sched []scheduled, tag string) []reply {
	out := make([]reply, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for i := int(next.Add(1) - 1); i < len(sched); i = int(next.Add(1) - 1) {
				due := start.Add(sched[i].at)
				time.Sleep(time.Until(due))
				sent := time.Now()
				rep := b.send(s, sched[i].req, fmt.Sprintf("%s-%d", tag, i))
				done := time.Now()
				rep.lat, rep.late = dueTiming(due, free, sent, done)
				free = done
				out[i] = rep
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs nproc clients back to back until seconds elapse,
// each taking the next request from gen.
func (b *bench) closedLoop(s *server, seconds float64, gen func() request, tag string) []reply {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				r := gen()
				i := len(out)
				out = append(out, reply{})
				mu.Unlock()
				start := time.Now()
				rep := b.send(s, r, fmt.Sprintf("%s-%d", tag, i))
				rep.lat = time.Since(start)
				mu.Lock()
				out[i] = rep
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// warmErr returns the first failed reply's error.
func warmErr(replies []reply) error {
	for _, r := range replies {
		if r.err != nil {
			return fmt.Errorf("warm-up request failed: %w", r.err)
		}
	}
	return nil
}

// serveRun is what the two serve workloads share: the programs at test
// scale prepared in-process (for the output check and the probes), a
// seeded key set (half of each program's design grid plus one MRC
// request per program), and the server under test.
type serveRun struct {
	o     *outcome
	progs []program
	grids [][]api.Config
	mrcs  []fvcache.MRCRequest
	srv   *server
}

func (b *bench) newServeRun(rng *rand.Rand) (*serveRun, error) {
	progs, err := b.prepare()
	if err != nil {
		return nil, err
	}
	r := &serveRun{o: newOutcome(), progs: progs, grids: make([][]api.Config, len(progs))}
	r.o.info["bytes_per_access"] = bytesPerAccess(progs)
	for i := range progs {
		r.grids[i] = halfGrid(designGrid(rng))
	}
	r.mrcs = mrcRequests(rng, progs)
	return r, nil
}

// boot sets a server up setupRounds times, each time fresh and
// warmed, recording each boot-plus-warm time, and keeps the last one
// running.
func (b *bench) boot(r *serveRun, warm func(*server) error) error {
	var extra []string
	if b.tr.on {
		extra = []string{"-trace-ring", "65536"} // hold the whole phase
	}
	for round := 0; ; round++ {
		start := time.Now()
		s, err := b.startServer(extra...)
		if err != nil {
			return err
		}
		if err := warm(s); err != nil {
			s.kill()
			return err
		}
		r.o.setup = append(r.o.setup, time.Since(start).Seconds())
		if round == setupRounds-1 {
			r.srv = s
			return nil
		}
		if err := s.stop(); err != nil {
			return fmt.Errorf("stopping set-up server: %w", err)
		}
	}
}

// measured runs the measured phase through loop, untraced, or in a
// traced run as an untraced then a traced half whose p50 ratio is the
// spans' overhead, and records the server-side layers around it.
func (b *bench) measured(r *serveRun, tag string, loop func(seconds float64, tag string) []reply) ([]reply, error) {
	before, err := r.srv.stageSnapshot()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(r.srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	stealBefore := hostCPU()
	start := time.Now()
	var replies []reply
	if b.tr.on {
		b.tr.on = false
		plain := loop(b.seconds/2, tag)
		b.tr.on = true
		replies = loop(b.seconds/2, tag+"-traced")
		r.o.layers["trace_overhead"] = metric{p50(replies) / p50(plain), "ratio"}
		replies = append(plain, replies...)
	} else {
		replies = loop(b.seconds, tag)
	}
	r.o.phase.elapsed = time.Since(start)
	r.o.info["host_steal_ratio"] = hostCPU().stealSince(stealBefore)
	if err := b.serverLayers(r.o, r.srv, before, replies); err != nil {
		return nil, err
	}
	if err := r.srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping fvcached: %w", err)
	}
	return replies, nil
}

// runServeHot is the serve-hot workload: independent readers of known
// results. The key set (8 configs per program at test scale, plus one
// MRC request per program) is fully cached before the measured phase,
// which offers a seeded Poisson arrival schedule at a fixed rate with
// Zipf-popular keys.
func (b *bench) runServeHot() (*outcome, error) {
	rng := rand.New(rand.NewSource(b.seed))
	r, err := b.newServeRun(rng)
	if err != nil {
		return nil, err
	}
	o := r.o
	var warmReqs []request
	for i, p := range r.progs {
		warmReqs = append(warmReqs,
			request{measure: &api.MeasureRequest{Workload: p.name, Scale: "test", Configs: r.grids[i]}, prog: i},
			request{mrc: wireMRC(r.mrcs[i]), prog: i})
	}
	// Three passes: the first computes every key, the next two hit it
	// twice, which promotes it to the disk tier, so the measured phase
	// only reads.
	warm := func(s *server) error {
		for pass := 0; pass < 3; pass++ {
			if err := warmErr(b.sendAll(s, warmReqs, "warm")); err != nil {
				return err
			}
		}
		return nil
	}
	if err := b.boot(r, warm); err != nil {
		return nil, err
	}
	defer r.srv.kill()

	replies, err := b.measured(r, "hot", func(seconds float64, tag string) []reply {
		return b.openLoop(r.srv, hotSchedule(rng, r, seconds), tag)
	})
	if err != nil {
		return nil, err
	}
	o.account(replies, hotLimit)

	var lates []float64
	for _, rep := range replies {
		lates = append(lates, ms(rep.late))
	}
	sort.Float64s(lates)
	late := quantile(lates, 0.99)
	o.info["gen_late_p99_ms"] = late
	o.layers["gen.late_p99_ms"] = metric{late, "ms"}
	if late > ms(lateBound) {
		o.mismatch("generator ran late: p99 %.2f ms > %v, run invalid", late, lateBound)
	}
	// The engine pass re-computes exactly the served keys.
	return o, b.checkServed(r, replies, nil)
}

// runServeCold is the serve-cold workload: callers that each wait for
// a sweep. nproc closed-loop clients send requests of 1-8 configs no
// request named before, twins that repeat a config of the request
// just before (likely in flight on the other client), and never-sent
// MRC requests; coldTraffic fixes the mix.
func (b *bench) runServeCold() (*outcome, error) {
	rng := rand.New(rand.NewSource(b.seed))
	r, err := b.newServeRun(rng)
	if err != nil {
		return nil, err
	}
	o := r.o
	seen := make([]map[string]bool, len(r.progs))
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	// A config with an FVC makes the warm-up profile the program too.
	warmCfg := api.Config{FVCEntries: 64, FVCBits: 1}.Normalized()
	var warmReqs []request
	for i, p := range r.progs {
		seen[i][warmCfg.Fingerprint()] = true
		warmReqs = append(warmReqs, request{measure: &api.MeasureRequest{Workload: p.name, Scale: "test", Config: &warmCfg}, prog: i})
	}
	if err := b.boot(r, func(s *server) error { return warmErr(b.sendAll(s, warmReqs, "warm")) }); err != nil {
		return nil, err
	}
	defer r.srv.kill()

	traffic := newColdTraffic(rng, r, seen)
	replies, err := b.measured(r, "cold", func(seconds float64, tag string) []reply {
		return b.closedLoop(r.srv, seconds, traffic.next, tag)
	})
	if err != nil {
		return nil, err
	}
	o.account(replies, coldLimit)
	o.layers["gen.late_p99_ms"] = metric{0, "ms"} // closed loop: no schedule to fall behind

	// Besides the engine pass, check the first answers of the seeded
	// sequence, each against its own in-process re-computation.
	var extra []request
	nm, nr := 0, 0
	for _, rep := range replies {
		switch {
		case rep.req.measure != nil && nm < coldChecked:
			extra = append(extra, rep.req)
			nm++
		case rep.req.mrc != nil && nr < coldMRCChecked:
			extra = append(extra, rep.req)
			nr++
		}
	}
	return o, b.checkServed(r, replies, extra)
}

func p50(replies []reply) float64 {
	var lat []float64
	for _, r := range replies {
		lat = append(lat, ms(r.lat))
	}
	sort.Float64s(lat)
	return quantile(lat, 0.5)
}

// account turns replies into calls and the work they answered, per
// second of the measured phase.
func (o *outcome) account(replies []reply, limit time.Duration) {
	for _, r := range replies {
		o.call(r.lat, limit, r.err)
		if r.resp != nil {
			o.configs += len(r.resp.Results)
			for _, res := range r.resp.Results {
				o.phase.cfgAcc += float64(res.Accesses)
			}
		}
		if r.summary != nil {
			o.phase.mrcAcc += float64(r.summary.Accesses)
		}
	}
}

// expected holds in-process answers: measure results by program and
// config fingerprint, MRC points by program and request.
type expected struct {
	results map[string]api.Result
	points  map[string][]api.MRCPoint
}

func resultKey(prog int, c api.Config) string {
	return fmt.Sprintf("%d %s", prog, c.Normalized().Fingerprint())
}

func mrcKey(prog int, m *api.MRCRequest) string {
	return fmt.Sprintf("%d %d %d %v", prog, m.LineBytes, m.MaxSizeBytes, m.SetCounts)
}

func (e *expected) addResults(prog int, cfgs []api.Config, res []fvcache.MeasureResult) {
	for j, r := range res {
		e.results[resultKey(prog, cfgs[j])] = api.Result{Stats: r.Stats, FVCFreqFrac: r.FVCFreqFrac, FVCOccupancy: r.FVCOccupancy}
	}
}

func (e *expected) addCurves(prog int, m *api.MRCRequest, res *fvcache.MRCResult) {
	var pts []api.MRCPoint
	for _, cv := range res.Curves {
		for _, pt := range cv.Points {
			pts = append(pts, api.MRCPoint{Sets: cv.Sets, SizeBytes: pt.SizeBytes, Assoc: pt.Assoc, Misses: pt.Misses, MissRatio: pt.MissRatio})
		}
	}
	e.points[mrcKey(prog, m)] = pts
}

// checkServed runs one engine pass in-process over the key set (on
// serve-hot exactly the served keys), re-computes the extra requests, and compares every
// served answer it has an expectation for: a mismatch fails the run.
// Traced runs then probe every layer on the same programs.
func (b *bench) checkServed(r *serveRun, replies []reply, extra []request) error {
	o := r.o
	res, curves, err := b.enginePass(r.progs, r.grids, r.mrcs)
	if err != nil {
		return err
	}
	want := expected{results: map[string]api.Result{}, points: map[string][]api.MRCPoint{}}
	for i, p := range r.progs {
		want.addResults(i, r.grids[i], res[i])
		want.addCurves(i, wireMRC(r.mrcs[i]), curves[i])
		o.digestAdd(p.name, res[i], curves[i])
		o.explainFVC(res[i])
	}
	ctx := context.Background()
	for _, q := range extra {
		p := r.progs[q.prog]
		if q.mrc != nil {
			c, err := fvcache.MissRateCurves(ctx, fvcache.MRCRequest{Workload: p.name, Scale: fvcache.Test,
				LineBytes: q.mrc.LineBytes, MaxSizeBytes: q.mrc.MaxSizeBytes, SetCounts: q.mrc.SetCounts})
			if err != nil {
				return err
			}
			want.addCurves(q.prog, q.mrc, c)
			o.digestAdd(p.name, c)
			continue
		}
		cfgs := q.measure.Configs
		res, err := fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{Workload: p.name, Scale: fvcache.Test,
			Configs: materialize(cfgs, p.profile), Options: fvcache.Options{Parallelism: b.nproc}})
		if err != nil {
			return err
		}
		want.addResults(q.prog, cfgs, res)
		o.digestAdd(p.name, res)
	}

	for _, rep := range replies {
		switch {
		case rep.resp != nil:
			cfgs := rep.req.measure.Configs
			if rep.req.measure.Config != nil {
				cfgs = []api.Config{*rep.req.measure.Config}
			}
			for j, cfg := range cfgs {
				w, ok := want.results[resultKey(rep.req.prog, cfg)]
				if !ok {
					continue // not in the checked sample
				}
				got := rep.resp.Results[j]
				if got.Stats != w.Stats || got.FVCFreqFrac != w.FVCFreqFrac || got.FVCOccupancy != w.FVCOccupancy {
					o.mismatch("%s %s: served %+v != in-process %+v", rep.req.measure.Workload, cfg.Fingerprint(), got.Stats, w.Stats)
				}
			}
		case rep.summary != nil:
			if w, ok := want.points[mrcKey(rep.req.prog, rep.req.mrc)]; ok && !equalPoints(rep.points, w) {
				o.mismatch("%s MRC %v: served curve differs from in-process", rep.req.mrc.Workload, rep.req.mrc.SetCounts)
			}
		}
	}
	if !b.tr.on {
		return nil
	}
	return b.probeLayers(o, r.progs, r.grids)
}

func equalPoints(a, b []api.MRCPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serverLayers derives the service's per-layer metrics: BatchInfo
// ratios from the answers, per-stage quantiles from the difference of
// two reads of fvcached's stage histograms, and the stages only the
// flight recorder times from its spans inside the measured phase.
func (b *bench) serverLayers(o *outcome, s *server, before map[string]obs.QuantileSnapshot, replies []reply) error {
	after, err := s.stageSnapshot()
	if err != nil {
		return err
	}
	if o.rssMB, err = s.peakRSS(); err != nil {
		return err
	}
	var hits, cfgs, coalesced, batches float64
	for _, r := range replies {
		if r.resp == nil {
			continue
		}
		batches++
		hits += float64(r.resp.Batch.CacheHits)
		cfgs += float64(r.resp.Batch.Configs)
		if r.resp.Batch.Coalesced {
			coalesced++
		}
	}
	if batches > 0 && cfgs > 0 {
		o.layers["resultcache.hit_ratio"] = metric{hits / cfgs, "ratio"}
		o.layers["serve.coalesce_ratio"] = metric{coalesced / batches, "ratio"}
		o.layers["serve.batch_configs"] = metric{cfgs / batches, "count"}
		o.info["hit_ratio"] = hits / cfgs
		o.info["coalesce_ratio"] = coalesced / batches
	}
	for _, st := range histStages {
		d := subtractBuckets(after[st].Buckets, before[st].Buckets)
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.5}, {"_p99_us", 0.99}} {
			v, _ := bucketQuantile(d, q.q)
			o.layers["serve.stage."+st+q.suffix] = metric{float64(v), "us"}
		}
	}
	if !b.tr.on {
		return nil
	}
	resp, err := http.Get(s.cli.BaseURL() + "/debug/requests")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var dump struct {
		Traces []obs.RequestTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("reading /debug/requests: %w", err)
	}
	spans := map[string][]float64{}
	for _, t := range dump.Traces {
		if !strings.HasPrefix(t.ID, "hot") && !strings.HasPrefix(t.ID, "cold") {
			continue // set-up traffic
		}
		for _, sp := range t.Spans {
			spans[sp.Name] = append(spans[sp.Name], float64(sp.DurationUS))
		}
	}
	for _, st := range traceStages {
		v := spans[st]
		sort.Float64s(v)
		o.layers["serve.stage."+st+"_p50_us"] = metric{quantile(v, 0.5), "us"}
		o.layers["serve.stage."+st+"_p99_us"] = metric{quantile(v, 0.99), "us"}
	}
	return nil
}
