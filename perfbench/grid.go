package main

import (
	"math"
	"math/rand"

	"fvcache"
	"fvcache/api"
)

// The paper's design space (Figs. 10-15): main cache size, line and
// associativity; FVC entries and code width; victim cache and L2.
var (
	mainKB     = []int{4, 8, 16, 32, 64}
	lineBytes  = []int{16, 32, 64}
	fvcEntries = []int{64, 128, 256, 512, 1024, 2048, 4096}
)

// deal returns the values repeated to n and shuffled: every grid holds
// the same multiset of each parameter, and the seed decides which
// config gets which value.
func deal(rng *rand.Rand, values []int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = values[i%len(values)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// designGrid draws the 16-config grid of one seed: 4 plain caches of
// associativity 1, 1, 2 and 4; 8 direct-mapped caches with an FVC of
// 1, 2 or 3 bits; 2 with a victim cache of 4 or 16 lines; a 4-way L2
// of 256 KB and one of 128 KB with an FVC. The first 14 configs take
// 14 of the 15 (main size, line) pairs of the space and the FVCs take
// a fixed multiset of entry counts, dealt by the seed: every grid has
// nearly the same geometries, so its cost barely depends on the seed
// while which config gets which geometry does. The L2s keep their size
// and 32-byte lines: the largest L2 sets how far the parallel engine
// replays to warm each worker, so it must not vary with the seed (nor
// with halfGrid, which keeps the 256 KB one).
func designGrid(rng *rand.Rand) []api.Config {
	var pairs [][2]int
	for _, kb := range mainKB {
		for _, line := range lineBytes {
			pairs = append(pairs, [2]int{kb, line})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	l2Main := deal(rng, mainKB, 2)
	entries := deal(rng, fvcEntries, 9)
	victims := deal(rng, []int{4, 16}, 2)
	g := make([]api.Config, 16)
	for i := range g {
		if i < 14 {
			g[i] = api.Config{MainBytes: pairs[i][0] << 10, LineBytes: pairs[i][1]}
		} else {
			g[i] = api.Config{MainBytes: l2Main[i-14] << 10, LineBytes: 32}
		}
		switch {
		case i < 4:
			g[i].Assoc = []int{1, 1, 2, 4}[i]
		case i < 12:
			g[i].FVCEntries, g[i].FVCBits = entries[i-4], 1+i%3
		case i < 14:
			g[i].VictimEntries = victims[i-12]
		default:
			g[i].L2Bytes, g[i].L2Assoc = 256<<10, 4
			if i == 15 {
				g[i].L2Bytes = 128 << 10
				g[i].FVCEntries, g[i].FVCBits = entries[8], 3
			}
		}
		g[i] = g[i].Normalized()
	}
	return g
}

// halfGrid keeps every other config of a grid: half the cost, every
// kind of config still present.
func halfGrid(g []api.Config) []api.Config {
	var out []api.Config
	for j := 0; j < len(g); j += 2 {
		out = append(out, g[j])
	}
	return out
}

// mrcRequests draws one MRC request per program: a line size and,
// next to the fully associative family, two set-indexed families. A
// pass costs about twice as much per access at 16-byte lines as at 64,
// and programs differ in length by 25x, so line sizes are not drawn
// freely: of 64 seeded assignments that give each size a third of the
// programs, the one that gives each size the most even share of the
// accesses is used.
func mrcRequests(rng *rand.Rand, progs []program) []fvcache.MRCRequest {
	var total float64
	for _, p := range progs {
		total += float64(p.rec.Accesses())
	}
	var best []int
	bestDev := math.Inf(1)
	for try := 0; try < 64; try++ {
		lines := deal(rng, seq(len(lineBytes)), len(progs))
		share := make([]float64, len(lineBytes))
		for i, p := range progs {
			share[lines[i]] += float64(p.rec.Accesses()) / total
		}
		dev := 0.0
		for _, sh := range share {
			dev = math.Max(dev, math.Abs(sh-1/float64(len(lineBytes))))
		}
		if dev < bestDev {
			best, bestDev = lines, dev
		}
	}
	var pairs [][2]int
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			pairs = append(pairs, [2]int{32 << i, 32 << j})
		}
	}
	order := deal(rng, seq(len(pairs)), len(progs))
	out := make([]fvcache.MRCRequest, len(progs))
	for i, p := range progs {
		pr := pairs[order[i]]
		out[i] = fvcache.MRCRequest{Workload: p.name, Scale: fvcache.Test, LineBytes: lineBytes[best[i]],
			MaxSizeBytes: 256 << 10, SetCounts: []int{1, pr[0], pr[1]}}
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// materialize turns wire configs into engine configs, taking each
// FVC's frequent value table from the workload's profile, as the
// service does for a request that names none.
func materialize(cfgs []api.Config, profile []uint32) []fvcache.Config {
	out := make([]fvcache.Config, len(cfgs))
	for i, c := range cfgs {
		var vals []uint32
		if c.NeedsProfile() {
			n := fvcache.MaxFVTValues(c.FVCBits)
			if n > len(profile) {
				n = len(profile)
			}
			vals = profile[:n]
		}
		out[i] = c.Materialize(vals)
	}
	return out
}
