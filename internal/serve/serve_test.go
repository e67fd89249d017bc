package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
	"repro/internal/relation"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// deployExample1 deploys Example1 as an in-proc overlay with the given
// link latency and returns the P1 node.
func deployExample1(t *testing.T, latency time.Duration) *peernet.Node {
	t.Helper()
	tr := peernet.NewInProc()
	tr.Latency = latency
	nodes, stop, err := peernet.Deploy(core.Example1System(), tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return nodes["P1"]
}

// newTestServer deploys Example1 and serves P1 with the TTL caches on.
func newTestServer(t *testing.T, cfg Config) (*Server, *peernet.Node) {
	t.Helper()
	served := deployExample1(t, 0)
	served.CacheTTL = time.Minute
	return New(served, cfg), served
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxConcurrent != runtime.GOMAXPROCS(0) {
		t.Fatalf("MaxConcurrent = %d, want GOMAXPROCS", c.MaxConcurrent)
	}
	if c.MaxQueue != 4*c.MaxConcurrent {
		t.Fatalf("MaxQueue = %d, want %d", c.MaxQueue, 4*c.MaxConcurrent)
	}
	if c.QueryParallelism < 1 {
		t.Fatalf("QueryParallelism = %d, want >= 1", c.QueryParallelism)
	}
	c = Config{MaxConcurrent: 2, MaxQueue: -1, QueryParallelism: 3}.withDefaults()
	if c.MaxConcurrent != 2 || c.MaxQueue != 0 || c.QueryParallelism != 3 {
		t.Fatalf("explicit config mangled: %+v", c)
	}
}

// TestAnswerMatchesNode pins the serving-plane contract: a served query
// returns exactly the paper's answer, computed by the engines over the
// in-memory system (testutil.Oracle), under both semantics.
func TestAnswerMatchesNode(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 2})
	q := foquery.MustParse("r1(X,Y)")
	for _, transitive := range []bool{false, true} {
		got, err := srv.AnswerString(q.String(), []string{"X", "Y"}, transitive)
		if err != nil {
			t.Fatal(err)
		}
		want, err := testutil.Oracle(core.Example1System(), "P1", q, []string{"X", "Y"}, transitive)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("transitive=%v: served answers %v != oracle answers %v", transitive, got, want)
		}
	}
	if srv.Registry().Counter("serve_queries_total").Value() != 2 {
		t.Fatal("query counter did not advance")
	}
	if _, err := srv.AnswerString("r1(X,", []string{"X"}, false); err == nil {
		t.Fatal("AnswerString accepted a malformed query")
	}
}

// TestNodeMetricsTrackStats: every node_*/repair_* series reads its
// peernet.Stats field. ScatteredConflicts' root seeds an incremental
// series for ra0(X,Y) and patches it after writes to ra2.
func TestNodeMetricsTrackStats(t *testing.T) {
	nodes, stop, err := peernet.Deploy(workload.ScatteredConflicts(4, 3, 11), peernet.NewInProc())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	node := nodes["A"]
	node.CacheTTL = time.Minute
	srv := New(node, Config{MaxConcurrent: 2})
	q := foquery.MustParse("ra0(X,Y)")
	vars := []string{"X", "Y"}
	check := func() peernet.Stats {
		t.Helper()
		st := node.Stats()
		var b strings.Builder
		srv.WriteMetrics(&b)
		for name, want := range map[string]int64{
			"node_answer_cache_hits":          st.AnswerCacheHits,
			"node_answer_cache_misses":        st.AnswerCacheMisses,
			"node_relation_cache_hits":        st.RelationCacheHits,
			"node_relation_cache_misses":      st.RelationCacheMisses,
			"node_coalesce_leaders":           st.CoalesceLeaders,
			"node_coalesced_total":            st.Coalesced,
			"node_solver_runs_total":          st.SolverRuns,
			"node_local_writes_total":         st.LocalWrites,
			"repair_searches_total":           st.RepairSearches,
			"repair_localized_total":          st.RepairLocalized,
			"repair_components_total":         st.RepairComponents,
			"node_incr_patched_total":         st.IncrPatched,
			"node_incr_seeded_total":          st.IncrSeeded,
			"node_incr_fallbacks_total":       st.IncrFallbacks,
			"node_delegated_total":            st.Delegated,
			"node_delegation_fallbacks_total": st.DelegationFallbacks,
		} {
			line := fmt.Sprintf("%s %d\n", name, want)
			if !strings.Contains(b.String(), line) {
				t.Fatalf("metrics lack %q:\n%s", line, b.String())
			}
		}
		return st
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Answer(q, vars, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Write("ra2", []string{"m", "n"}); err != nil {
		t.Fatal(err)
	}
	st := check()
	if st.AnswerCacheHits != 2 || st.AnswerCacheMisses != 1 || st.LocalWrites != 1 || st.RepairSearches == 0 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 write, some repair searches", st)
	}

	// Drive the incremental and delegation counters to distinct values:
	// three patched repeats, a spec change that drops the series (one
	// fallback, one reseeding) and four delegated direct queries, each
	// of which falls back to the centralized path.
	for i := 0; i < 3; i++ {
		if i > 0 {
			if err := srv.Write("ra2", []string{fmt.Sprint("w", i), "n"}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.Answer(q, vars, false); err != nil {
			t.Fatal(err)
		}
	}
	node.UpdateLocal(func(p *core.Peer) { p.Declare("extra", 1) })
	if _, err := srv.Answer(q, vars, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := node.AnswerQuery(q, vars, peernet.QueryOptions{Delegate: true}); err != nil {
			t.Fatal(err)
		}
	}
	st = check()
	if st.IncrPatched != 3 || st.IncrSeeded != 2 || st.IncrFallbacks != 1 || st.Delegated != 0 || st.DelegationFallbacks != 4 {
		t.Fatalf("stats = %+v, want 3 patched, 2 seeded, 1 incr fallback, 4 delegation fallbacks", st)
	}
}

// TestHTTPQueryWriteVisibility drives the full HTTP surface: query,
// write, immediate re-query (the write must be visible inside the TTL
// window), metrics and health.
func TestHTTPQueryWriteVisibility(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func() queryResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?" + url.Values{
			"q": {"r1(X,Y)"}, "vars": {"X,Y"},
		}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}

	before := query()
	if before.Count == 0 {
		t.Fatal("expected some certain answers for r1(X,Y)")
	}

	resp, err := http.PostForm(ts.URL+"/write", url.Values{"rel": {"r1"}, "tuple": {"fresh,f"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write status %d", resp.StatusCode)
	}

	after := query()
	if after.Count != before.Count+1 {
		t.Fatalf("post-write count = %d, want %d", after.Count, before.Count+1)
	}
	found := false
	for _, a := range after.Answers {
		if len(a) == 2 && a[0] == "fresh" && a[1] == "f" {
			found = true
		}
	}
	if !found {
		t.Fatalf("write not visible to the next query: %v", after.Answers)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	nread, _ := mresp.Body.Read(body)
	mresp.Body.Close()
	text := string(body[:nread])
	for _, want := range []string{
		"serve_queries_total 2", "serve_writes_total 1", "serve_shed_total 0",
		"serve_query_latency_count 2", "node_solver_runs_total", "node_local_writes_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"missing vars", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?q=r1(X,Y)")
		}, http.StatusBadRequest},
		{"bad query", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?" + url.Values{"q": {"not a query"}, "vars": {"X"}}.Encode())
		}, http.StatusBadRequest},
		{"bad transitive", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?" + url.Values{"q": {"r1(X,Y)"}, "vars": {"X,Y"}, "transitive": {"maybe"}}.Encode())
		}, http.StatusBadRequest},
		{"write GET", func() (*http.Response, error) {
			return http.Get(ts.URL + "/write?rel=r1&tuple=a,b")
		}, http.StatusMethodNotAllowed},
		{"write unknown rel", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/write", url.Values{"rel": {"nope"}, "tuple": {"a,b"}})
		}, http.StatusBadRequest},
		{"write bad arity", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/write", url.Values{"rel": {"r1"}, "tuple": {"a,b,c"}})
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestShedDeterministic proves the admission bound without racing real
// queries: with the pool slot taken by hand and no queue, Answer must
// shed immediately, and the HTTP surface must translate that into 503 +
// Retry-After. Draining the slot restores service.
func TestShedDeterministic(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	srv.sem <- struct{}{} // occupy the only pool slot

	q := foquery.MustParse("r1(X,Y)")
	if _, err := srv.Answer(q, []string{"X", "Y"}, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if srv.reg.Counter("serve_shed_total").Value() != 1 {
		t.Fatal("shed counter did not advance")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"r1(X,Y)"}, "vars": {"X,Y"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}

	<-srv.sem // free the slot
	if _, err := srv.Answer(q, []string{"X", "Y"}, false); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestHTTPDrainingAnswers503: a query arriving after Stop is shed with
// ErrStopping, which the HTTP surface reports as 503 (not as an engine
// failure). Retry-After stays with overload shedding: a draining server
// is going away, not busy.
func TestHTTPDrainingAnswers503(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if !srv.Stop() {
		t.Fatal("an idle server must drain at once")
	}
	resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"r1(X,Y)"}, "vars": {"X,Y"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body["error"] != ErrStopping.Error() {
		t.Fatalf("draining query: status %d, body %v; want 503 with %q", resp.StatusCode, body, ErrStopping)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("draining 503 carries Retry-After %q", ra)
	}
}

// TestQueueAdmitsThenSheds exercises the middle admission tier: one
// query slot taken, one queued waiter allowed, the next shed.
func TestQueueAdmitsThenSheds(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	srv.sem <- struct{}{} // pool full

	queued := make(chan []relation.Tuple, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ans, err := srv.Answer(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
		if err != nil {
			t.Error(err)
			return
		}
		queued <- ans
	}()
	// Wait for the goroutine to park in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.reg.Gauge("serve_queue_depth").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued query never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Queue full: the next query is shed.
	if _, err := srv.Answer(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	<-srv.sem // free the slot; the queued query runs
	wg.Wait()
	if ans := <-queued; len(ans) == 0 {
		t.Fatal("queued query returned no answers")
	}
}

// TestConcurrentMixedLoad hammers the server with parallel queries and
// interleaved writes under the race detector and checks the bookkeeping
// adds up afterwards.
func TestConcurrentMixedLoad(t *testing.T) {
	srv, node := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	q := foquery.MustParse("r1(X,Y)")
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w == 0 && i%3 == 0 {
					if err := srv.Write("r1", []string{"w", "x"}); err != nil {
						t.Error(err)
					}
					continue
				}
				if _, err := srv.Answer(q, []string{"X", "Y"}, false); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	queries := srv.reg.Counter("serve_queries_total").Value()
	if queries != 56 { // 6*10 minus worker 0's 4 writes
		t.Fatalf("queries = %d, want 56", queries)
	}
	if srv.reg.Counter("serve_writes_total").Value() != 4 {
		t.Fatalf("writes = %d", srv.reg.Counter("serve_writes_total").Value())
	}
	if got := srv.reg.Histogram("serve_query_latency").Count(); got != queries {
		t.Fatalf("latency count = %d, want %d", got, queries)
	}
	if srv.reg.Gauge("serve_inflight").Value() != 0 || srv.reg.Gauge("serve_queue_depth").Value() != 0 {
		t.Fatal("gauges must settle to zero after the load")
	}
	// Writes are idempotent re-inserts of the same fact after the first,
	// but every call still goes through UpdateLocal.
	if w := node.Stats().LocalWrites; w != 4 {
		t.Fatalf("node writes = %d", w)
	}
}

// TestStopDrainsQueuedIncr: Stop lets both the in-flight query and a
// request still waiting in the admission queue complete, then reports
// drained; arrivals after Stop are shed with ErrStopping.
func TestStopDrainsQueuedIncr(t *testing.T) {
	// Remote fan-out over a slow link makes the first query slow.
	srv := New(deployExample1(t, 20*time.Millisecond), Config{MaxConcurrent: 1, MaxQueue: 4, DrainTimeout: 5 * time.Second})

	q := foquery.MustParse("r1(X,Y)")
	vars := []string{"X", "Y"}
	type result struct {
		ans []relation.Tuple
		err error
	}
	results := make(chan result, 2)
	run := func() {
		ans, err := srv.Answer(q, vars, false)
		results <- result{ans, err}
	}
	go run() // slow leader: occupies the MaxConcurrent=1 pool
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	go run() // follower: waits in the admission queue
	for srv.queued.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if !srv.Stop() {
		t.Fatal("Stop reported a drain timeout")
	}
	if !srv.Stopping() {
		t.Fatal("Stopping() should report true after Stop")
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("drained query %d failed: %v", i, r.err)
		}
		if len(r.ans) == 0 {
			t.Fatalf("drained query %d returned no answers", i)
		}
	}

	// New arrivals after Stop are shed with the draining error.
	if _, err := srv.Answer(q, vars, false); !errors.Is(err, ErrStopping) {
		t.Fatalf("post-Stop query: err = %v, want ErrStopping", err)
	}
}

// TestStopDrainTimeoutIncr: a query slower than DrainTimeout makes
// Stop return false without cancelling the work.
func TestStopDrainTimeoutIncr(t *testing.T) {
	srv := New(deployExample1(t, 150*time.Millisecond), Config{MaxConcurrent: 1, DrainTimeout: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Answer(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Stop() {
		t.Fatal("Stop should have timed out with the query still running")
	}
	if err := <-done; err != nil {
		t.Fatalf("the slow query must still complete: %v", err)
	}
}
