package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 36, 72, 134, 999, 1000, 1001, 5000} {
		q, v, ok := tail(ascending(n))
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := n - int(v)
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%.4f=%v leaves %d beyond, want >= %d", n, 100*q, v, beyond, tailBeyond)
		}
		if q > 0.99 {
			t.Errorf("n=%d: quantile %v above p99", n, q)
		}
		// Highest such percentile: p99 once enough samples exist,
		// otherwise the next rank up would leave too few beyond.
		if q < 0.99 && beyond != tailBeyond {
			t.Errorf("n=%d: p%.4f leaves %d beyond; a higher percentile qualifies", n, 100*q, beyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: quantile %v, want p99", n, q)
		}
		if got := quantile(ascending(n), q); got != v {
			t.Errorf("n=%d: tail value %v is not the nearest-rank p%.4f %v", n, v, 100*q, got)
		}
	}
	for _, n := range []int{1, 10, 19} {
		if q, v, ok := tail(ascending(n)); ok || q != 1 || v != float64(n) {
			t.Errorf("%d samples: got ok=%v p%v=%v, want no tail and the maximum", n, ok, 100*q, v)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := ascending(10)
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.51, 6}, {0.99, 10}, {0, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("q=%v: got %v want %v", c.q, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // clipped to the parent
		{Name: "a1", Parent: 1, Start: ms(12), End: ms(18)},
		{Name: "other", Parent: -1, Start: ms(5), End: ms(15)}, // not a child of root
	}
	want := []time.Duration{ms(100 - 40 - 10), ms(20 - 6), ms(30), ms(30), ms(6), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	ran := false
	tr.do("x", "r", -1, func() { ran = true })
	if !ran || len(tr.spans) != 0 {
		t.Fatalf("ran=%v spans=%d, want the call run and no span", ran, len(tr.spans))
	}
	tr.on = true
	root := tr.begin("root", "r", -1)
	tr.do("child", "r", root, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != "r" {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestDueTimeLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		name                 string
		due, free, sent, end int
		latency, late        int
	}{
		// A free sender sends 1 ms after the due time: that
		// millisecond is the generator's, not the system's.
		{"on time", 100, 50, 101, 110, 9, 1},
		// Behind: every sender was busy until 130, so the request
		// waited 30 ms in the client's queue. That wait is latency,
		// not generator lateness.
		{"queued behind a busy sender", 100, 130, 130, 140, 40, 0},
		{"late after the sender freed up", 100, 130, 133, 140, 37, 3},
		// A sleep never ends early, but a clock step must not make
		// lateness negative.
		{"early", 100, 0, 99, 105, 5, 0},
	} {
		lat, late := dueTiming(at(c.due), at(c.free), at(c.sent), at(c.end))
		if lat != time.Duration(c.latency)*time.Millisecond || late != time.Duration(c.late)*time.Millisecond {
			t.Errorf("%s: latency %v late %v, want %dms %dms", c.name, lat, late, c.latency, c.late)
		}
	}
}

func TestBucketDifferenceIsThePhase(t *testing.T) {
	// Read the way fvcached exports it: a registry snapshot.
	r := obs.NewRegistry()
	h := r.Quantile("h", 2)
	for _, v := range []uint64{5, 5, 900} {
		h.Observe(v)
	}
	before := r.Snapshot().Latencies["h"]
	for _, v := range []uint64{100, 200, 300, 900, 5000} {
		h.Observe(v)
	}
	d := subtractBuckets(r.Snapshot().Latencies["h"].Buckets, before.Buckets)
	if n := d[len(d)-1].Count; n != 5 {
		t.Fatalf("phase holds %d observations, want 5", n)
	}
	if p50, _ := bucketQuantile(d, 0.5); p50 < 297 || p50 > 303 {
		t.Errorf("phase p50 = %d, want about 300", p50)
	}
	if p99, _ := bucketQuantile(d, 0.99); p99 < 4950 || p99 > 5050 {
		t.Errorf("phase p99 = %d, want about 5000", p99)
	}
	if _, ok := bucketQuantile(subtractBuckets(before.Buckets, before.Buckets), 0.5); ok {
		t.Error("an empty phase has a quantile")
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// program's metric lists in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	o.lat = ascending(20)
	got := map[string]string{}
	for name, m := range (&bench{}).endToEnd(o) {
		got[name] = m.Unit
	}
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]string) {
		var names []string
		for _, m := range want {
			if got[m.Name] != m.Unit {
				t.Errorf("%s %s: program unit %q, BENCHMARK.json %q", kind, m.Name, got[m.Name], m.Unit)
			}
			names = append(names, m.Name)
		}
		if len(got) != len(want) {
			sort.Strings(names)
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d: %v", kind, len(got), len(want), names)
		}
	}
	check("end_to_end", spec.EndToEnd, got)
	layers := map[string]string{}
	for _, l := range perLayer {
		layers[l[0]] = l[1]
	}
	check("per_layer", spec.PerLayer, layers)
}

func TestApportionKeepsTotalAndProportion(t *testing.T) {
	got := apportion([]float64{3, 1, 1}, 10)
	if got[0] != 6 || got[1]+got[2] != 4 || got[1] < 1 || got[2] < 1 {
		t.Fatalf("apportion(3:1:1, 10) = %v", got)
	}
	if s := apportion([]float64{1, 1, 1}, 0); s[0]+s[1]+s[2] != 0 {
		t.Fatalf("apportion of 0 = %v", s)
	}
}

func TestColdTrafficMix(t *testing.T) {
	r := &serveRun{progs: make([]program, 18)}
	seen := make([]map[string]bool, len(r.progs))
	for i := range r.progs {
		r.progs[i].name = fmt.Sprintf("p%d", i)
		r.progs[i].rec = trace.NewRecording()
		for j := 0; j < i; j++ {
			r.progs[i].rec.Append(trace.Load, uint32(4*j), 0)
		}
		seen[i] = map[string]bool{}
	}
	tr := newColdTraffic(rand.New(rand.NewSource(7)), r, seen)
	const rounds = 8
	configs := make([]int, len(r.progs))
	sizes := make([]map[int]bool, len(r.progs))
	for p := range sizes {
		sizes[p] = map[int]bool{}
	}
	named := map[string]int{}
	mrcs, twins := 0, 0
	tiers := map[int]int{} // by length quarter; longer programs have higher indices
	var prev *api.MeasureRequest
	for tr.round < rounds || len(tr.queue) > 0 {
		q := tr.next()
		switch {
		case q.mrc != nil:
			mrcs++
			tiers[q.prog*coldMRCs/len(r.progs)]++
		case len(q.measure.Configs) == 1 && prev != nil && prev.Workload == q.measure.Workload &&
			named[q.measure.Workload+q.measure.Configs[0].Fingerprint()] > 0:
			twins++
		default:
			configs[q.prog] += len(q.measure.Configs)
			sizes[q.prog][len(q.measure.Configs)] = true
			for _, c := range q.measure.Configs {
				key := q.measure.Workload + c.Fingerprint()
				if named[key]++; named[key] > 1 {
					t.Errorf("%s named twice", key)
				}
			}
		}
		if q.measure != nil {
			prev = q.measure
		}
	}
	for p, n := range configs {
		if n != 36 || len(sizes[p]) != 8 {
			t.Errorf("program %d asked for %d configs in %d sizes in eight rounds, want 36 in sizes 1-8", p, n, len(sizes[p]))
		}
	}
	for k := 0; k < coldMRCs; k++ {
		if tiers[k] != rounds {
			t.Errorf("length quarter %d got %d MRC requests in eight rounds, want %d", k, tiers[k], rounds)
		}
	}
	if mrcs != rounds*coldMRCs || twins != rounds*coldTwins {
		t.Errorf("eight rounds carried %d MRC requests and %d twins, want %d and %d", mrcs, twins, rounds*coldMRCs, rounds*coldTwins)
	}
}

func TestHotScheduleMix(t *testing.T) {
	r := &serveRun{progs: make([]program, 18), grids: make([][]api.Config, 18), mrcs: make([]fvcache.MRCRequest, 18)}
	for i := range r.progs {
		r.grids[i] = halfGrid(designGrid(rand.New(rand.NewSource(int64(i)))))
	}
	a := hotSchedule(rand.New(rand.NewSource(1)), r, 10)
	b := hotSchedule(rand.New(rand.NewSource(2)), r, 10)
	if len(a) != int(hotRate*10) || len(b) != len(a) {
		t.Fatalf("schedules of %d and %d requests, want %d", len(a), len(b), int(hotRate*10))
	}
	mix := func(s []scheduled) map[string]int {
		m := map[string]int{}
		for i, x := range s {
			if i > 0 && x.at < s[i-1].at {
				t.Fatal("schedule out of order")
			}
			if x.req.mrc != nil {
				m[fmt.Sprintf("mrc %d", x.req.prog)]++
			} else {
				m[fmt.Sprintf("%d %d", x.req.prog, x.req.measure.Config.MainBytes)]++
			}
		}
		return m
	}
	ma, mb := mix(a), mix(b)
	for k, n := range ma {
		if strings.HasPrefix(k, "mrc") && mb[k] != n {
			t.Errorf("%s: %d requests with seed 1, %d with seed 2", k, n, mb[k])
		}
	}
	if a[0].at == b[0].at {
		t.Error("two seeds gave the same arrival times")
	}
}

func TestWindowTailIsTheMedianWindow(t *testing.T) {
	// Five windows of 400; the middle one holds a stall.
	const n = 400
	lat := make([]float64, tailWindows*n)
	for i := range lat {
		lat[i] = float64(i % n)
	}
	for i := 2 * n; i < 3*n; i++ {
		lat[i] += 1000
	}
	q, v, windows := windowTail(lat)
	if windows != tailWindows || q != float64(n-tailBeyond)/n || v != n-tailBeyond-1 {
		t.Errorf("got p%v=%v over %d windows, want p97.5=389 over %d", 100*q, v, windows, tailWindows)
	}
	// Too few samples for windows of 2*tailBeyond: the plain tail.
	few := ascending(tailWindows*2*tailBeyond - 1)
	q, v, windows = windowTail(few)
	if wq, wv, _ := tail(few); windows != 1 || q != wq || v != wv {
		t.Errorf("got p%v=%v over %d windows, want the plain tail p%v=%v", 100*q, v, windows, 100*wq, wv)
	}
}
