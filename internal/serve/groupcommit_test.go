// Deterministic tests for /v1/measure group commit: a gated stub
// executor holds a key's batch running while the test places requests,
// and every wait is on server state, never on a wall-clock window.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fvcache"
)

// reply is one finished /v1/measure call.
type reply struct {
	status int
	resp   measureRespWire
}

// postAsync issues a /v1/measure call on its own goroutine.
func postAsync(t *testing.T, url, body string) <-chan reply {
	t.Helper()
	ch := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/measure", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			ch <- reply{}
			return
		}
		defer resp.Body.Close()
		var r reply
		r.status = resp.StatusCode
		if r.status == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&r.resp); err != nil {
				t.Error(err)
			}
		}
		ch <- r
	}()
	return ch
}

// waitUntil yields until cond holds. The limit only turns a hang into
// a failure; no assertion depends on how long the wait takes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	limit := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(limit) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// parkedBatches reads how many next batches wait behind running ones.
func (s *Server) parkedBatches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parked
}

// gatedExec stubs the executor: batches of the gated workload block
// until release closes, every other batch returns at once. Each
// executed batch is recorded in start order.
type gatedExec struct {
	workload string
	release  chan struct{}
	started  chan *batch

	mu   sync.Mutex
	runs []*batch
}

func newGatedExec(sv *Server, workload string) *gatedExec {
	// started holds more batches than any test runs, so the stub never
	// blocks on a start nobody reads.
	g := &gatedExec{workload: workload, release: make(chan struct{}), started: make(chan *batch, 64)}
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		g.mu.Lock()
		g.runs = append(g.runs, b)
		g.mu.Unlock()
		g.started <- b
		if b.workload == g.workload {
			select {
			case <-g.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return make([]fvcache.MeasureResult, len(b.configs)), nil
	}
	return g
}

func (g *gatedExec) executions() []*batch {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*batch(nil), g.runs...)
}

// fvtConfigs renders n distinct configurations as a JSON array: each
// names its own one-value frequent value table.
func fvtConfigs(from, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf(`{"fvc_entries":64,"frequent_values":[%d]}`, from+i)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestGroupCommitJoinsRunningBatch: identical requests that arrive
// while their batch runs take seats in it — one execution, and every
// client sees all of them in Batch.Requests.
func TestGroupCommitJoinsRunningBatch(t *testing.T) {
	const clients = 6
	sv, ts := newTestService(t, Options{Workers: 2})
	g := newGatedExec(sv, "goboard")
	body := `{"workload":"goboard","configs":[{"fvc_entries":256},{}]}`

	replies := []<-chan reply{postAsync(t, ts.URL, body)}
	<-g.started
	for i := 1; i < clients; i++ {
		replies = append(replies, postAsync(t, ts.URL, body))
	}
	waitUntil(t, "joiners", func() bool { return sv.ServerStats().Coalesced == clients-1 })
	close(g.release)

	for i, ch := range replies {
		r := <-ch
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d", i, r.status)
		}
		if r.resp.Batch.Requests != clients || !r.resp.Batch.Coalesced || r.resp.Batch.Configs != 2 {
			t.Errorf("client %d: batch %+v, want requests=%d configs=2 coalesced", i, r.resp.Batch, clients)
		}
	}
	if n := len(g.executions()); n != 1 {
		t.Errorf("%d executions, want 1", n)
	}
	if st := sv.ServerStats(); st.Batches != 1 {
		t.Errorf("stats %+v, want 1 batch", st)
	}
}

// TestGroupCommitNextBatch: a new configuration for a running key
// waits in the key's next batch and runs right after it, with its
// coalesce_wait stamped; a different key runs meanwhile on the other
// worker.
func TestGroupCommitNextBatch(t *testing.T) {
	sv, ts := newTestService(t, Options{Workers: 2})
	g := newGatedExec(sv, "goboard")

	first := postAsync(t, ts.URL, `{"workload":"goboard","config":{"fvc_entries":256}}`)
	a := <-g.started
	second := postAsync(t, ts.URL, `{"workload":"goboard","config":{"fvc_entries":512}}`)
	waitUntil(t, "the next batch", func() bool { return sv.parkedBatches() == 1 })

	// Another key is not held up by goboard's queue of two.
	if r := <-postAsync(t, ts.URL, `{"workload":"ccomp"}`); r.status != http.StatusOK {
		t.Fatalf("other key: status %d", r.status)
	}
	close(g.release)
	r1, r2 := <-first, <-second
	if r1.status != http.StatusOK || r2.status != http.StatusOK {
		t.Fatalf("statuses %d, %d", r1.status, r2.status)
	}
	if r1.resp.Batch.TraceID == r2.resp.Batch.TraceID || r2.resp.Batch.Coalesced {
		t.Errorf("second request shared a batch: %+v / %+v", r1.resp.Batch, r2.resp.Batch)
	}

	runs := g.executions()
	if len(runs) != 3 {
		t.Fatalf("%d executions, want 3", len(runs))
	}
	if runs[0] != a || runs[1].workload != "ccomp" || runs[2].workload != "goboard" {
		t.Fatalf("execution order %s, %s, %s", runs[0].workload, runs[1].workload, runs[2].workload)
	}
	b := runs[2]
	// The worker stamps replayDone and dispatched before it seals under
	// s.mu; taking the lock orders those writes before these reads.
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if !a.dispatched.Equal(a.created) {
		t.Errorf("idle key's batch waited %v before its queue", a.dispatched.Sub(a.created))
	}
	if !b.dispatched.After(b.created) || b.dispatched.Before(a.replayDone) {
		t.Errorf("next batch: created %v, dispatched %v, predecessor done %v",
			b.created, b.dispatched, a.replayDone)
	}
}

// TestGroupCommitLaterDeadlineWaits: a request may join a running
// batch only if the batch's context outlives it. A joiner with an
// earlier deadline takes a seat; one with a later deadline waits for
// the next batch.
func TestGroupCommitLaterDeadlineWaits(t *testing.T) {
	sv, ts := newTestService(t, Options{Workers: 2})
	g := newGatedExec(sv, "goboard")
	body := `{"workload":"goboard","deadline_ms":%d}`

	head := postAsync(t, ts.URL, fmt.Sprintf(body, 60_000))
	<-g.started
	earlier := postAsync(t, ts.URL, fmt.Sprintf(body, 30_000))
	waitUntil(t, "the joiner", func() bool { return sv.ServerStats().Coalesced == 1 })
	later := postAsync(t, ts.URL, fmt.Sprintf(body, 90_000))
	waitUntil(t, "the next batch", func() bool { return sv.parkedBatches() == 1 })
	close(g.release)

	rh, re, rl := <-head, <-earlier, <-later
	for _, r := range []reply{rh, re, rl} {
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
	}
	if rh.resp.Batch.TraceID != re.resp.Batch.TraceID || rh.resp.Batch.Requests != 2 {
		t.Errorf("earlier-deadline joiner did not share the running batch: %+v / %+v", rh.resp.Batch, re.resp.Batch)
	}
	if rl.resp.Batch.TraceID == rh.resp.Batch.TraceID || rl.resp.Batch.Requests != 1 {
		t.Errorf("later-deadline joiner shared the bounded batch: %+v", rl.resp.Batch)
	}
	if n := len(g.executions()); n != 2 {
		t.Errorf("%d executions, want 2", n)
	}
}

// TestShutdownRunsParkedBatch: a next batch parked when Shutdown
// begins still runs and answers 200, while new requests get 503.
func TestShutdownRunsParkedBatch(t *testing.T) {
	sv := New(Options{Workers: 2})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	g := newGatedExec(sv, "goboard")

	running := postAsync(t, ts.URL, `{"workload":"goboard"}`)
	<-g.started
	parked := postAsync(t, ts.URL, `{"workload":"goboard","config":{"assoc":2}}`)
	waitUntil(t, "the next batch", func() bool { return sv.parkedBatches() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- sv.Shutdown(context.Background()) }()
	waitUntil(t, "the drain flag", sv.draining.Load)
	if r := <-postAsync(t, ts.URL, `{"workload":"goboard"}`); r.status != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", r.status)
	}

	close(g.release)
	if r := <-running; r.status != http.StatusOK {
		t.Errorf("running batch: status %d", r.status)
	}
	if r := <-parked; r.status != http.StatusOK {
		t.Errorf("parked batch: status %d", r.status)
	}
	if err := <-drained; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if n := len(g.executions()); n != 2 {
		t.Errorf("%d executions, want 2", n)
	}
}

// TestBatchConfigCap: a request naming more distinct configurations
// than one batch holds is refused, and requests that together overflow
// a waiting next batch are split across two batches.
func TestBatchConfigCap(t *testing.T) {
	sv, ts := newTestService(t, Options{Workers: 2})
	g := newGatedExec(sv, "goboard")

	if r := <-postAsync(t, ts.URL, `{"workload":"goboard","configs":`+fvtConfigs(0, maxBatchConfigs+1)+`}`); r.status != http.StatusBadRequest {
		t.Errorf("%d distinct configs: status %d, want 400", maxBatchConfigs+1, r.status)
	}
	// Duplicates count once.
	dup := fvtConfigs(0, maxBatchConfigs)
	dup = dup[:len(dup)-1] + "," + dup[1:]

	head := postAsync(t, ts.URL, `{"workload":"goboard"}`)
	<-g.started
	const n = maxBatchConfigs/2 + 8
	a := postAsync(t, ts.URL, `{"workload":"goboard","configs":`+fvtConfigs(0, n)+`}`)
	waitUntil(t, "the next batch", func() bool { return sv.parkedBatches() == 1 })
	b := postAsync(t, ts.URL, `{"workload":"goboard","configs":`+fvtConfigs(n, n)+`}`)
	waitUntil(t, "the overflow batch", func() bool { return sv.parkedBatches() == 2 })
	c := postAsync(t, ts.URL, `{"workload":"goboard","configs":`+dup+`}`)
	waitUntil(t, "a third next batch", func() bool { return sv.parkedBatches() == 3 })
	close(g.release)

	for i, ch := range []<-chan reply{head, a, b, c} {
		if r := <-ch; r.status != http.StatusOK {
			t.Errorf("request %d: status %d", i, r.status)
		}
	}
	runs := g.executions()
	var sizes []int
	for _, r := range runs {
		sizes = append(sizes, len(r.configs))
	}
	if fmt.Sprint(sizes) != fmt.Sprint([]int{1, n, n, maxBatchConfigs}) {
		t.Errorf("batch sizes %v, want [1 %d %d %d]", sizes, n, n, maxBatchConfigs)
	}
}
