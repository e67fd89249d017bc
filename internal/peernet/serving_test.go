package peernet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestUpdateLocalInvalidatesSnapshotCache is the write-visibility
// regression test: with the TTL caches warm, a local write must be
// visible to the very next query instead of serving pre-write data for
// up to CacheTTL — the write moves the data fingerprint the answer
// cache is keyed by, and the caches hold remote data only.
func TestUpdateLocalInvalidatesSnapshotCache(t *testing.T) {
	// The remaining answering path slices its snapshot per query; the
	// unsliced path this test once also pinned is gone.
	t.Run("sliced", func(t *testing.T) {
		sys := core.Example1System()
		nodes := startNetwork(t, sys, NewInProc())
		p1 := nodes["P1"]
		now := time.Unix(1000, 0)
		p1.clock = func() time.Time { return now }
		p1.CacheTTL = time.Minute
		q := foquery.MustParse("r1(X,Y)")
		ask := func() []relation.Tuple {
			t.Helper()
			ans, err := p1.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return ans
		}
		before := ask()
		ask() // make sure the TTL caches are warm before the write

		p1.UpdateLocal(func(p *core.Peer) { p.Fact("r1", "fresh", "f") })

		// Still inside the TTL window: the write must be visible.
		got := ask()
		if len(got) != len(before)+1 {
			t.Fatalf("post-write answers %v, want %v plus (fresh,f)", got, before)
		}
		found := false
		for _, tu := range got {
			if tu.Equal(relation.Tuple{"fresh", "f"}) {
				found = true
			}
		}
		if !found {
			t.Fatalf("written fact not visible within TTL: %v", got)
		}

		// And they must match the in-memory oracle over the same peers.
		want, err := testutil.Oracle(sys, "P1", q, []string{"X", "Y"}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("within-TTL answers %v != oracle answers %v", got, want)
		}
		if w := p1.Stats().LocalWrites; w != 1 {
			t.Fatalf("LocalWrites = %d, want 1", w)
		}
	})
}

// TestSchemaMutatingUpdateLocalVsRequestsRace grows the served peer's
// schema (Declare + Fact through UpdateLocal) while concurrent
// requests exercise every handler path that reads it — OpRelations and
// OpFetch read the live schema (the seed read them outside dataMu),
// OpExportSpec renders a clone, and the PCA path snapshots it. Run
// under -race.
func TestSchemaMutatingUpdateLocalVsRequestsRace(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]

	// The writer count is bounded: every Declare grows the schema that
	// each snapshot and export then has to clone, so an unbounded loop
	// turns the test quadratic.
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 150; i++ {
			rel := fmt.Sprintf("dyn%d", i)
			p1.UpdateLocal(func(p *core.Peer) {
				p.Declare(rel, 2)
				p.Fact(rel, "k", "v")
			})
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := tr.Call(p1.Addr, Request{Op: OpRelations})
				if err != nil {
					t.Error(err)
				} else if resp.Err != "" {
					t.Error(resp.Err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := tr.Call(p1.Addr, Request{Op: OpFetch, Rel: "r1"})
				if err != nil {
					t.Error(err)
				} else if resp.Err != "" {
					t.Error(resp.Err)
				}
				// Probing a relation the writer may be declaring right now
				// must answer cleanly either way (declared or not yet).
				if _, err := tr.Call(p1.Addr, Request{Op: OpFetch, Rel: fmt.Sprintf("dyn%d", j)}); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := tr.Call(p1.Addr, Request{Op: OpExportSpec})
				if err != nil {
					t.Error(err)
				} else if resp.Err != "" {
					t.Error(resp.Err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := p1.AnswerQuery(
					foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, QueryOptions{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	writer.Wait()
}

// requireQueryAccounting asserts the serving-plane bookkeeping identity
// for a node that answered asked direct, non-delegated queries with no
// answer-cache eviction: every query is exactly one of a cache hit, a
// cache miss or an incremental patch, and the solver ran once per
// flight leader.
func requireQueryAccounting(t *testing.T, n *Node, asked int64) {
	t.Helper()
	st := n.Stats()
	if got := st.AnswerCacheHits + st.AnswerCacheMisses + st.IncrPatched; got != asked {
		t.Fatalf("hits=%d + misses=%d + patched=%d = %d outcomes for %d queries",
			st.AnswerCacheHits, st.AnswerCacheMisses, st.IncrPatched, got, asked)
	}
	if !n.NoCoalesce && st.SolverRuns != st.CoalesceLeaders {
		t.Fatalf("solver ran %d times for %d leaders", st.SolverRuns, st.CoalesceLeaders)
	}
}

// TestAnswerQueryCoalescingAccounting fires identical concurrent
// queries at a cold node and checks the serving-plane bookkeeping
// identity that holds at every interleaving: each query is either an
// answer-cache hit, a singleflight leader, or coalesced into one — and
// the solver ran exactly once per leader. All answers must be
// identical. With a live incremental series, write-free repeats count
// as cache hits only, so every query is still counted once.
func TestAnswerQueryCoalescingAccounting(t *testing.T) {
	const n = 12
	sys := core.Example1System()
	tr := NewInProc()
	tr.Latency = 200 * time.Microsecond
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	q := foquery.MustParse("r1(X,Y)")
	ask := func() ([]relation.Tuple, error) { return p1.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{}) }

	answers := make([][]relation.Tuple, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := ask()
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = ans
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Fatalf("answer %d = %v differs from %v", i, answers[i], answers[0])
		}
	}
	st := p1.Stats()
	if st.AnswerCacheMisses != st.CoalesceLeaders+st.Coalesced {
		t.Fatalf("misses=%d but leaders=%d coalesced=%d", st.AnswerCacheMisses, st.CoalesceLeaders, st.Coalesced)
	}
	if st.CoalesceLeaders < 1 {
		t.Fatal("at least one computation must have run")
	}
	requireQueryAccounting(t, p1, n)

	// A repeat query is now a pure cache hit: no new leader.
	if _, err := ask(); err != nil {
		t.Fatal(err)
	}
	if l2 := p1.Stats().CoalesceLeaders; l2 != st.CoalesceLeaders {
		t.Fatalf("repeat query started a new computation (%d -> %d leaders)", st.CoalesceLeaders, l2)
	}
	requireQueryAccounting(t, p1, n+1)

	// NoCoalesce: a cold key must bypass the flight and run the solver
	// directly.
	p1.NoCoalesce = true
	p1.UpdateLocal(func(p *core.Peer) { p.Fact("r1", "cold", "c") }) // move the fingerprint
	if _, err := ask(); err != nil {
		t.Fatal(err)
	}
	after := p1.Stats()
	if after.CoalesceLeaders != st.CoalesceLeaders {
		t.Fatalf("NoCoalesce query went through the flight (%d -> %d leaders)", st.CoalesceLeaders, after.CoalesceLeaders)
	}
	if after.SolverRuns != st.CoalesceLeaders+1 {
		t.Fatalf("NoCoalesce query did not run the solver (runs=%d)", after.SolverRuns)
	}
	requireQueryAccounting(t, p1, n+2)

	// A live incremental series: five identical queries with no write
	// in between are one miss and four hits, not four hits and four
	// patches on top.
	scattered := startNetwork(t, workload.ScatteredConflicts(4, 3, 11), NewInProc())
	root := scattered["A"]
	root.CacheTTL = time.Minute
	ra0 := foquery.MustParse("ra0(X,Y)")
	for i := 0; i < 5; i++ {
		if _, err := root.AnswerQuery(ra0, []string{"X", "Y"}, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := root.Stats(); st.AnswerCacheHits != 4 || st.AnswerCacheMisses != 1 || st.IncrPatched != 0 || st.IncrSeeded == 0 {
		t.Fatalf("write-free repeats: hits=%d misses=%d patched=%d seeded=%d, want 4/1/0 with a live series",
			st.AnswerCacheHits, st.AnswerCacheMisses, st.IncrPatched, st.IncrSeeded)
	}
	requireQueryAccounting(t, root, 5)
}

// TestRepairStatsAccumulate checks the component counters surface
// through the node: a direct-semantics query that engages the
// conflict-localized engine must report its searches and components.
func TestRepairStatsAccumulate(t *testing.T) {
	sys := core.Example1System()
	nodes := startNetwork(t, sys, NewInProc())
	p1 := nodes["P1"]
	if _, err := p1.AnswerQuery(
		foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	st := p1.Stats()
	if st.RepairSearches == 0 {
		t.Fatal("repair stats recorded no searches for a direct query")
	}
	if st.RepairLocalized > st.RepairSearches || st.RepairComponents < st.RepairLocalized {
		t.Fatalf("implausible stats: searches=%d localized=%d components=%d",
			st.RepairSearches, st.RepairLocalized, st.RepairComponents)
	}
}
