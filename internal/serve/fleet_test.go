// Fleet e2e: 3 nodes on a consistent-hash ring, driven through the
// public client SDK. Proves single ownership (every config's batches
// execute on exactly one node), bit-identical results vs a single-node
// server, local-fallback degradation when the owner dies (no 5xx
// storm, no corrupt results) and clean re-join after recovery.
package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"fvcache/api"
	"fvcache/client"
	"fvcache/internal/fleet"
	"fvcache/internal/obs"
)

type fleetNode struct {
	sv   *Server
	hs   *http.Server
	addr string // host:port, stable across restarts
	url  string
	fl   *fleet.Fleet
	cli  *client.Client
}

// restart re-listens on the node's original port (after a kill) and
// serves again with the same Server — simulating a process coming back
// on its advertised address.
func (n *fleetNode) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatalf("re-listen %s: %v", n.addr, err)
	}
	n.hs = &http.Server{Handler: n.sv.Handler()}
	go n.hs.Serve(ln)
}

// startFleet boots n fvcached-equivalent nodes with a shared static
// membership.
func startFleet(t *testing.T, n int, fo fleet.Options, so Options) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		fl, err := fleet.New(fleet.Options{
			Self: urls[i], Peers: urls,
			VNodes: fo.VNodes, FailThreshold: fo.FailThreshold, Cooldown: fo.Cooldown, Now: fo.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := so
		opt.Fleet = fl
		sv := New(opt)
		hs := &http.Server{Handler: sv.Handler()}
		go hs.Serve(lns[i])
		cli, err := client.New(urls[i], client.Options{NoRetry: true})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &fleetNode{sv: sv, hs: hs, addr: lns[i].Addr().String(), url: urls[i], fl: fl, cli: cli}
		t.Cleanup(func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sv.Shutdown(ctx)
		})
	}
	return nodes
}

// fleetConfigPool is a small mix of distinct geometries.
func fleetConfigPool() []api.Config {
	return []api.Config{
		{MainBytes: 4096},
		{MainBytes: 8192},
		{MainBytes: 8192, Assoc: 2},
		{MainBytes: 8192, FVCEntries: 128},
		{MainBytes: 16384, FVCEntries: 256},
		{MainBytes: 8192, VictimEntries: 8},
	}
}

func TestFleetSingleOwnershipBitIdentical(t *testing.T) {
	nodes := startFleet(t, 3, fleet.Options{}, Options{CoalesceWindow: time.Millisecond})

	// Single-node reference for bit-identical comparison.
	_, ref := newTestService(t, Options{CoalesceWindow: time.Millisecond})
	refCli, err := client.New(ref.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ownerOf := map[string]string{} // fingerprint -> executing node URL
	for _, cfg := range fleetConfigPool() {
		req := api.MeasureRequest{Workload: "goboard", Config: &cfg}
		want, err := refCli.Measure(ctx, req)
		if err != nil {
			t.Fatalf("reference measure: %v", err)
		}
		wantJSON, _ := json.Marshal(want.Results)

		fp := cfg.Normalized().Fingerprint()
		for _, n := range nodes {
			got, err := n.cli.Measure(ctx, req)
			if err != nil {
				t.Fatalf("measure via %s: %v", n.url, err)
			}
			gotJSON, _ := json.Marshal(got.Results)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("config %s via %s: results differ from single-node\n got %s\nwant %s",
					fp, n.url, gotJSON, wantJSON)
			}
			if got.Batch.Node == "" {
				t.Fatalf("config %s via %s: batch carries no node identity", fp, n.url)
			}
			if prev, ok := ownerOf[fp]; ok && prev != got.Batch.Node {
				t.Errorf("config %s executed on two owners: %s and %s", fp, prev, got.Batch.Node)
			}
			ownerOf[fp] = got.Batch.Node
			// A request answered by a non-owner must carry the proxy
			// marker; one answered by the owner itself must not.
			if n.url != got.Batch.Node && got.ForwardedBy != n.url {
				t.Errorf("config %s via %s executed on %s but ForwardedBy=%q",
					fp, n.url, got.Batch.Node, got.ForwardedBy)
			}
			if n.url == got.Batch.Node && got.ForwardedBy != "" {
				t.Errorf("config %s: self-owned response claims ForwardedBy=%q", fp, got.ForwardedBy)
			}
		}
	}

	// The pool should spread over more than one node, and the
	// forwarding counters must account for every cross-node request.
	owners := map[string]bool{}
	for _, u := range ownerOf {
		owners[u] = true
	}
	if len(owners) < 2 {
		t.Errorf("all %d configs landed on one node; ring is not spreading", len(ownerOf))
	}
	var forwarded, received, owned uint64
	for _, n := range nodes {
		c := n.sv.FleetCounters()
		forwarded += c.Forwarded
		received += c.ReceivedForwarded
		owned += c.LocalOwned
		if c.ForwardFallback != 0 {
			t.Errorf("node %s reports %d fallbacks with all peers alive", n.url, c.ForwardFallback)
		}
	}
	if forwarded == 0 || received == 0 {
		t.Fatalf("no forwarding happened (forwarded=%d received=%d)", forwarded, received)
	}
	if forwarded != received {
		t.Errorf("forwarded %d != received %d", forwarded, received)
	}
	t.Logf("owners=%d forwarded=%d received=%d local-owned=%d", len(owners), forwarded, received, owned)
}

func TestFleetFallbackAndRejoin(t *testing.T) {
	// The breakers run on a test clock that only moves when the test
	// advances it, so no amount of wall time (a slow -race run) can
	// expire the cooldown early.
	const cooldown = 300 * time.Millisecond
	var clock atomic.Int64
	nodes := startFleet(t, 3,
		fleet.Options{FailThreshold: 1, Cooldown: cooldown,
			Now: func() time.Time { return time.Unix(0, clock.Load()) }},
		Options{CoalesceWindow: time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Find a config that node 0 does NOT own, so node 0 must forward.
	var cfg api.Config
	var victim *fleetNode
	for _, c := range fleetConfigPool() {
		c := c
		req := api.MeasureRequest{Workload: "goboard", Config: &c}
		resp, err := nodes[0].cli.Measure(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Batch.Node != nodes[0].url {
			cfg = c
			for _, n := range nodes {
				if n.url == resp.Batch.Node {
					victim = n
				}
			}
			break
		}
	}
	if victim == nil {
		t.Fatal("no config owned by a peer of node 0; cannot exercise fallback")
	}
	req := api.MeasureRequest{Workload: "goboard", Config: &cfg}
	want, err := nodes[0].cli.Measure(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Results)

	// Kill the owner. Every subsequent request through node 0 must
	// still succeed (local fallback), with identical results and
	// without a single 5xx.
	victim.hs.Close()
	before := nodes[0].sv.FleetCounters()
	for i := 0; i < 5; i++ {
		got, err := nodes[0].cli.Measure(ctx, req)
		if err != nil {
			t.Fatalf("request %d during owner outage: %v", i, err)
		}
		if gotJSON, _ := json.Marshal(got.Results); string(gotJSON) != string(wantJSON) {
			t.Fatalf("request %d during outage: corrupt results\n got %s\nwant %s", i, gotJSON, wantJSON)
		}
		if got.Batch.Node != nodes[0].url {
			t.Fatalf("request %d during outage executed on %s, want local %s", i, got.Batch.Node, nodes[0].url)
		}
	}
	after := nodes[0].sv.FleetCounters()
	if after.ForwardFallback <= before.ForwardFallback {
		t.Fatalf("fallback counter did not move: %+v -> %+v", before, after)
	}
	// The peer breaker must have opened: most outage requests skip the
	// dial entirely instead of paying a connect timeout each.
	var down bool
	for _, p := range nodes[0].fl.Peers() {
		if p.URL() == victim.url && nodes[0].fl.State(p) == fleet.StateDown {
			down = true
		}
	}
	if !down {
		t.Errorf("victim peer not marked down on node 0 after repeated failures")
	}

	// Re-join: the owner comes back on its advertised address. Once
	// the cooldown elapses a probe is admitted and forwarding must
	// resume. Each attempt advances the clock past the cooldown, so a
	// probe that lost a race with the restart is retried.
	victim.restart(t)
	for attempt := 0; ; attempt++ {
		clock.Add(int64(cooldown) + 1)
		got, err := nodes[0].cli.Measure(ctx, req)
		if err != nil {
			t.Fatalf("measure after re-join: %v", err)
		}
		if got.Batch.Node == victim.url {
			if gotJSON, _ := json.Marshal(got.Results); string(gotJSON) != string(wantJSON) {
				t.Fatalf("post-rejoin results corrupt:\n got %s\nwant %s", gotJSON, wantJSON)
			}
			break
		}
		if attempt == 20 {
			t.Fatalf("forwarding never resumed after re-join (still executing on %s)", got.Batch.Node)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestFleetDebugEndpoints(t *testing.T) {
	nodes := startFleet(t, 3, fleet.Options{}, Options{CoalesceWindow: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Generate a little traffic so counters and latency series exist.
	for i, n := range nodes {
		cfg := api.Config{MainBytes: 4096 << uint(i%2)}
		if _, err := n.cli.Measure(ctx, api.MeasureRequest{Workload: "goboard", Config: &cfg}); err != nil {
			t.Fatal(err)
		}
	}

	// /debug/fleet: ring layout + counters.
	resp, err := http.Get(nodes[0].url + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg struct {
		Enabled  bool                 `json:"enabled"`
		Self     string               `json:"self"`
		Size     int                  `json:"size"`
		Peers    []fleet.PeerSnapshot `json:"peers"`
		Counters fleetCounters        `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if !dbg.Enabled || dbg.Size != 3 || len(dbg.Peers) != 3 || dbg.Self != nodes[0].url {
		t.Fatalf("bad /debug/fleet: %+v", dbg)
	}
	var share float64
	for _, p := range dbg.Peers {
		share += p.Share
	}
	if share < 0.99 || share > 1.01 {
		t.Errorf("peer shares sum to %.3f", share)
	}

	// /debug/metrics?fleet=1: merged snapshot names all three nodes.
	resp2, err := http.Get(nodes[0].url + "/debug/metrics?fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var agg struct {
		Fleet    bool     `json:"fleet"`
		Nodes    []string `json:"nodes"`
		Failed   []string `json:"failed_nodes"`
		Snapshot struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if !agg.Fleet || len(agg.Nodes) != 3 || len(agg.Failed) != 0 {
		t.Fatalf("bad fleet metrics aggregation: %+v", agg)
	}
	if obs.Enabled && agg.Snapshot.Counters["serve_requests_total"] == 0 {
		t.Error("merged snapshot lost the request counter")
	}
}
