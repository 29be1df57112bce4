package fleet

import (
	"fmt"
	"testing"
	"time"
)

func mustNew(t *testing.T, opt Options) *Fleet {
	t.Helper()
	f, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

var threePeers = []string{
	"http://127.0.0.1:9001",
	"http://127.0.0.1:9002",
	"http://127.0.0.1:9003",
}

func TestRingDeterministicAcrossNodes(t *testing.T) {
	// Every node, regardless of which member it is and of peer-flag
	// order, must compute the identical ownership function.
	a := mustNew(t, Options{Self: threePeers[0], Peers: threePeers})
	b := mustNew(t, Options{Self: threePeers[1], Peers: []string{threePeers[2], threePeers[0], threePeers[1]}})
	c := mustNew(t, Options{Self: threePeers[2], Peers: []string{threePeers[1], threePeers[0]}})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("goboard|small|cfg-%d|opts:x", i)
		oa, ob, oc := a.Owner(key).URL(), b.Owner(key).URL(), c.Owner(key).URL()
		if oa != ob || oa != oc {
			t.Fatalf("key %q: owners disagree: %s / %s / %s", key, oa, ob, oc)
		}
	}
}

func TestRingNormalizesPeerSpelling(t *testing.T) {
	f := mustNew(t, Options{
		Self:  "127.0.0.1:9001",
		Peers: []string{"http://127.0.0.1:9002/", "HTTP://127.0.0.1:9002", "http://127.0.0.1:9003"},
	})
	if got := f.Size(); got != 3 {
		t.Fatalf("Size = %d, want 3 (duplicate spellings should collapse)", got)
	}
	if f.SelfURL() != "http://127.0.0.1:9001" {
		t.Fatalf("SelfURL = %q", f.SelfURL())
	}
}

func TestRingBalance(t *testing.T) {
	f := mustNew(t, Options{Self: threePeers[0], Peers: threePeers})
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[f.Owner(fmt.Sprintf("m4/2/64 f1/32b o0 v[10] |opts:%d", i)).URL()]++
	}
	for u, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("peer %s owns %.1f%% of keys; want roughly a third", u, 100*frac)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d peers received keys", len(counts))
	}
}

func TestRingRemapMinimality(t *testing.T) {
	// Growing the fleet from 3 to 4 nodes must remap roughly 1/4 of
	// keys, not reshuffle everything (the consistent-hashing property).
	small := mustNew(t, Options{Self: threePeers[0], Peers: threePeers})
	big := mustNew(t, Options{Self: threePeers[0], Peers: append([]string{"http://127.0.0.1:9004"}, threePeers...)})
	const n = 10000
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if small.Owner(key).URL() != big.Owner(key).URL() {
			moved++
		}
	}
	frac := float64(moved) / n
	if frac > 0.40 {
		t.Fatalf("%.1f%% of keys remapped on 3→4 growth; want ≈25%%", 100*frac)
	}
	if frac < 0.10 {
		t.Fatalf("only %.1f%% of keys remapped; the new node is underweighted", 100*frac)
	}
}

func TestHealthBreaker(t *testing.T) {
	now := time.Unix(0, 0)
	f := mustNew(t, Options{
		Self: threePeers[0], Peers: threePeers,
		FailThreshold: 3, Cooldown: 5 * time.Second,
		Now: func() time.Time { return now },
	})
	var peer *Peer
	for _, p := range f.Peers() {
		if !p.Self() {
			peer = p
			break
		}
	}

	if !f.Available(peer) || f.State(peer) != StateUp {
		t.Fatalf("fresh peer should be up")
	}
	f.ReportFailure(peer)
	f.ReportFailure(peer)
	if f.State(peer) != StateUp {
		t.Fatalf("2 failures < threshold should stay up, got %s", f.State(peer))
	}
	f.ReportFailure(peer)
	if f.State(peer) != StateDown || f.Available(peer) {
		t.Fatalf("3rd failure should open the breaker, got %s", f.State(peer))
	}

	now = now.Add(6 * time.Second)
	if f.State(peer) != StateProbing || !f.Available(peer) {
		t.Fatalf("after cooldown the peer should be probing, got %s", f.State(peer))
	}
	// A failed probe re-downs immediately, without needing a fresh streak.
	f.ReportFailure(peer)
	if f.State(peer) != StateDown {
		t.Fatalf("failed probe should re-open, got %s", f.State(peer))
	}

	now = now.Add(6 * time.Second)
	f.ReportSuccess(peer)
	if f.State(peer) != StateUp || peer.fails.Load() != 0 {
		t.Fatalf("successful probe should fully reset, got %s fails=%d", f.State(peer), peer.fails.Load())
	}

	if self := f.self; f.State(self) != StateSelf || !f.Available(self) {
		t.Fatalf("self must always be available")
	}
}

func TestSnapshotShares(t *testing.T) {
	f := mustNew(t, Options{Self: threePeers[0], Peers: threePeers})
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d rows", len(snap))
	}
	total := 0.0
	for _, row := range snap {
		total += row.Share
		if row.Share < 0.10 || row.Share > 0.60 {
			t.Errorf("peer %s share %.3f out of plausible range", row.URL, row.Share)
		}
		if row.VNodes != 64 {
			t.Errorf("peer %s vnodes = %d", row.URL, row.VNodes)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %.4f, want 1", total)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing Self should error")
	}
	if _, err := New(Options{Self: "ftp://x"}); err == nil {
		t.Fatal("non-http scheme should error")
	}
	if _, err := New(Options{Self: "http://ok:1", Peers: []string{""}}); err == nil {
		t.Fatal("empty peer should error")
	}
	// Single-node fleet (self only) is valid: everything is local.
	f := mustNew(t, Options{Self: "http://127.0.0.1:9001"})
	if !f.Owner("anything").Self() {
		t.Fatal("single-node fleet must own every key itself")
	}
}
