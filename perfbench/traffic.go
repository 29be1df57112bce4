package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fvcache/api"
)

// Request mixes. The seed decides which key each request names and
// when it is sent, while the mix itself (how much of each program and
// request kind) is fixed: the work a run answers then depends on the
// service, not on the luck of the draw. Programs differ in length by
// 60x, so a freely drawn mix of a few hundred requests would move the
// answered work by a fifth between seeds.

// apportion splits n into integer counts proportional to weights by
// largest remainder.
func apportion(weights []float64, n int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		x := w / sum * float64(n)
		counts[i] = int(x)
		rem[i] = x - float64(counts[i])
		left -= counts[i]
	}
	order := seq(len(weights))
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// hotSchedule is serve-hot's arrival schedule for seconds: a Poisson
// process at hotRate conditioned on its expected count, so the arrival
// times are that many uniform draws. Programs are Zipf(1.2)-popular by
// registry order and, within a program, key k is 0.6^k as popular;
// mrcShare of the requests ask for the program's curves.
func hotSchedule(rng *rand.Rand, r *serveRun, seconds float64) []scheduled {
	n := int(hotRate * seconds)
	nMRC := int(math.Round(mrcShare * float64(n)))
	zipf := make([]float64, len(r.progs))
	for i := range zipf {
		zipf[i] = math.Pow(float64(i+1), -1.2)
	}
	var reqs []request
	for p, c := range apportion(zipf, nMRC) {
		for ; c > 0; c-- {
			reqs = append(reqs, request{prog: p, mrc: wireMRC(r.mrcs[p])})
		}
	}
	for p, c := range apportion(zipf, n-nMRC) {
		keys := make([]float64, len(r.grids[p]))
		for k := range keys {
			keys[k] = math.Pow(0.6, float64(k))
		}
		for k, ck := range apportion(keys, c) {
			for ; ck > 0; ck-- {
				reqs = append(reqs, request{prog: p, measure: &api.MeasureRequest{
					Workload: r.progs[p].name, Scale: "test", Config: &r.grids[p][k]}})
			}
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * seconds
	}
	sort.Float64s(at)
	out := make([]scheduled, n)
	for i := range out {
		out[i] = scheduled{time.Duration(at[i] * float64(time.Second)), reqs[i]}
	}
	return out
}

// coldTraffic generates serve-cold's endless request sequence in
// rounds. Each round sends every program one request of fresh configs
// in a seeded order; a program's sizes in eight consecutive rounds are
// a seeded permutation of 1..8, so every program asks for 36 configs
// per eight rounds and sends its largest request once in them (the
// longest programs' largest requests set the tail). coldTwins of the requests are followed at once by a
// twin naming one of their configs, which the other client then likely
// sends while the first is in flight. Each round also sends coldMRCs
// never-sent MRC requests, one from each quarter of the programs
// ranked by length (each quarter visited in a seeded cycle), so every
// round's curves cost about the same; each visit of a program takes
// the next line size.
type coldTraffic struct {
	rng    *rand.Rand
	r      *serveRun
	seen   []map[string]bool
	queue  []request
	round  int
	sizes  [][]int // per program, its sizes in rounds mod 8
	tiers  [coldMRCs][]int
	visits []int
	decks  [][]api.Config
}

// Of a round's 18 measure requests, coldTwins get a twin: with the
// coldMRCs curves, 6 of the round's 28 requests (about a fifth) repeat
// a config likely in flight.
const coldTwins, coldMRCs = 6, 4

func newColdTraffic(rng *rand.Rand, r *serveRun, seen []map[string]bool) *coldTraffic {
	t := &coldTraffic{rng: rng, r: r, seen: seen, sizes: make([][]int, len(r.progs)),
		visits: make([]int, len(r.progs)), decks: make([][]api.Config, len(r.progs))}
	for p := range t.sizes {
		for _, k := range rng.Perm(8) {
			t.sizes[p] = append(t.sizes[p], k+1)
		}
	}
	rank := seq(len(r.progs))
	sort.SliceStable(rank, func(a, b int) bool { return r.progs[rank[a]].rec.Accesses() > r.progs[rank[b]].rec.Accesses() })
	for k := range t.tiers {
		tier := rank[k*len(rank)/coldMRCs : (k+1)*len(rank)/coldMRCs]
		for _, i := range rng.Perm(len(tier)) {
			t.tiers[k] = append(t.tiers[k], tier[i])
		}
	}
	return t
}

func (t *coldTraffic) next() request {
	if len(t.queue) == 0 {
		t.fill()
	}
	q := t.queue[0]
	t.queue = t.queue[1:]
	return q
}

// fresh returns the next config of program p's deck that no request
// has named yet. The deck is a shuffled design grid, dealt out before
// the next is drawn, so every 16 configs a program gets hold the
// grid's fixed mix of kinds, which the cost of a config depends on.
func (t *coldTraffic) fresh(p int) (api.Config, bool) {
	for try := 0; try < 100; try++ {
		if len(t.decks[p]) == 0 {
			t.decks[p] = designGrid(t.rng)
			t.rng.Shuffle(len(t.decks[p]), func(i, j int) { t.decks[p][i], t.decks[p][j] = t.decks[p][j], t.decks[p][i] })
		}
		c := t.decks[p][0]
		t.decks[p] = t.decks[p][1:]
		if fp := c.Fingerprint(); !t.seen[p][fp] {
			t.seen[p][fp] = true
			return c, true
		}
	}
	return api.Config{}, false
}

func (t *coldTraffic) fill() {
	progs := t.r.progs
	twins := map[int]bool{}
	for _, i := range t.rng.Perm(len(progs))[:coldTwins] {
		twins[i] = true
	}
	for i, p := range t.rng.Perm(len(progs)) {
		n := t.sizes[p][t.round%8]
		var cfgs []api.Config
		for len(cfgs) < n {
			c, ok := t.fresh(p)
			if !ok {
				break
			}
			cfgs = append(cfgs, c)
		}
		if len(cfgs) == 0 {
			continue
		}
		name := progs[p].name
		t.queue = append(t.queue, request{prog: p, measure: &api.MeasureRequest{Workload: name, Scale: "test", Configs: cfgs}})
		if twins[i] {
			twin := []api.Config{cfgs[t.rng.Intn(len(cfgs))]}
			t.queue = append(t.queue, request{prog: p, measure: &api.MeasureRequest{Workload: name, Scale: "test", Configs: twin}})
		}
	}
	for _, tier := range t.tiers {
		p := tier[t.round%len(tier)]
		line := lineBytes[(t.visits[p]+p)%len(lineBytes)]
		t.visits[p]++
		for try := 0; try < 100; try++ {
			a, b := t.rng.Intn(6), t.rng.Intn(6)
			if a == b {
				continue
			}
			m := &api.MRCRequest{Workload: progs[p].name, Scale: "test", LineBytes: line,
				MaxSizeBytes: 256 << 10, SetCounts: []int{1, 32 << min(a, b), 32 << max(a, b)}}
			if fp := fmt.Sprintf("mrc %d %v", m.LineBytes, m.SetCounts); !t.seen[p][fp] {
				t.seen[p][fp] = true
				at := t.rng.Intn(len(t.queue) + 1)
				t.queue = append(t.queue[:at], append([]request{{prog: p, mrc: m}}, t.queue[at:]...)...)
				break
			}
		}
	}
	t.round++
}
