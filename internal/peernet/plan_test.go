package peernet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/sysdsl"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// probeEnv is a Chain(3,5) overlay queried at P0 with a one-hour TTL,
// a test clock and a call counter on the root's transport. t0 holds a
// second value for one key, so a denial can change answers without a
// data write. The remote relations are cached half an hour before the
// first query, so they expire half an hour before the specifications.
type probeEnv struct {
	sys        *core.System
	nodes      map[core.PeerID]*Node
	root       *Node
	tr         *countingTransport
	now        time.Time
	transitive bool
	asked      int64
	last       map[string][]relation.Tuple
}

func newProbeEnv(t *testing.T, transitive bool) *probeEnv {
	t.Helper()
	sys := workload.Chain(3, 5, 1)
	p0, _ := sys.Peer("P0")
	p0.Fact("t0", "p0_k0", "dup0")
	nodes := startNetwork(t, sys, NewInProc())
	e := &probeEnv{sys: sys, nodes: nodes, root: nodes["P0"], now: time.Unix(1000, 0),
		transitive: transitive, last: map[string][]relation.Tuple{}}
	e.tr = &countingTransport{Transport: e.root.tr}
	e.root.tr = e.tr
	e.root.clock = func() time.Time { return e.now }
	e.root.CacheTTL = time.Hour
	e.root.NoIncremental = !transitive
	for _, id := range []core.PeerID{"P1", "P2"} {
		if _, err := e.root.FetchRelations(id, []string{"t" + string(id[1:])}); err != nil {
			t.Fatal(err)
		}
	}
	e.now = e.now.Add(30 * time.Minute)
	return e
}

// Query paths, told apart by counters: a probe hit is one answer-cache
// hit with no relation-cache lookup and no call; the full path looks up
// every remote relation of its slice in the relation cache.
const (
	viaProbe = "probe"
	viaFull  = "full path"
)

// ask answers q and checks the path it took and its answers: the
// oracle over the live overlay, or with stale the answers q last got.
func (e *probeEnv) ask(t *testing.T, q string, path string, stale bool) {
	t.Helper()
	vars := []string{"Y"}
	if q == "t0(X,Y)" {
		vars = []string{"X", "Y"}
	}
	before, calls := e.root.Stats(), e.tr.calls.Load()
	got, err := e.root.AnswerQuery(foquery.MustParse(q), vars, QueryOptions{Transitive: e.transitive})
	if err != nil {
		t.Fatal(err)
	}
	e.asked++
	after := e.root.Stats()
	lookups := after.RelationCacheHits + after.RelationCacheMisses - before.RelationCacheHits - before.RelationCacheMisses
	took := viaFull
	if lookups == 0 && after.AnswerCacheHits == before.AnswerCacheHits+1 && e.tr.calls.Load() == calls {
		took = viaProbe
	}
	if took != path {
		t.Fatalf("%s took the %s, want the %s", q, took, path)
	}
	want := e.last[q]
	if !stale {
		if want, err = testutil.Oracle(e.sys, "P0", foquery.MustParse(q), vars, e.transitive); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s = %v, want %v", q, got, want)
	}
	e.last[q] = got
	requireQueryAccounting(t, e.root, e.asked)
}

// TestWarmHitProbeStaleness drives every way a memoized plan or a
// rebuilt key can go stale and checks that the next query takes the
// full path and answers like the oracle, and that the probe serves the
// repeat after it. A remote write inside the TTL is the one change the
// probe does not see, exactly like the full path, which reads the same
// relation cache: both serve the cached answer until the TTL runs out.
func TestWarmHitProbeStaleness(t *testing.T) {
	const all, keyed = "t0(X,Y)", "t0(p2_k0,Y)"
	// A step moves the clock, asks q and names the path the query must
	// take and whether it must serve stale answers.
	type step struct {
		wait    time.Duration
		q, path string
		stale   bool
	}
	// Most changes reach both shapes: each plan or key is stale.
	refresh := []step{{0, all, viaFull, false}, {0, keyed, viaFull, false}}
	cases := []struct {
		name   string
		change func(e *probeEnv)
		after  []step
	}{
		{"root data write", func(e *probeEnv) {
			e.root.UpdateLocal(func(p *core.Peer) { p.Fact("t0", "w0", "x") })
		}, refresh},
		{"root AddIC", func(e *probeEnv) {
			// The direct repair deletes t0(p0_k0,dup0). The transitive
			// program has no repair for a violated IC (no solutions),
			// so there the new IC holds and only the slice changes.
			ic := "t0(X, dup0) -> false"
			if e.transitive {
				ic = "t0(X, none) -> false"
			}
			d, err := sysdsl.ParseConstraint("deny_t0", ic)
			if err != nil {
				panic(err)
			}
			e.root.UpdateLocal(func(p *core.Peer) { p.AddIC(d) })
		}, refresh},
		{"root Declare", func(e *probeEnv) {
			e.root.UpdateLocal(func(p *core.Peer) { p.Declare("extra", 1) })
		}, refresh},
		{"root DEC renamed", func(e *probeEnv) {
			// Same rendering, trust and data: only the slice signature,
			// which names its constraints, moves the key.
			e.root.UpdateLocal(func(p *core.Peer) {
				d := *p.DECs["P1"][0]
				d.Name = "inc0_renamed"
				p.DECs["P1"] = []*constraint.Dependency{&d}
			})
		}, refresh},
		{"root SetTrust", func(e *probeEnv) {
			// Direct: the P1 imports become repairable, so uncertain.
			// The transitive program rejects a same-trust inclusion at
			// the root, so there the root trusts DEC-less P2 instead.
			if e.transitive {
				e.root.UpdateLocal(func(p *core.Peer) { p.SetTrust("P2", core.TrustLess) })
				return
			}
			e.root.UpdateLocal(func(p *core.Peer) { p.SetTrust("P1", core.TrustSame) })
		}, refresh},
		{"SetNeighbor after a remote spec change", func(e *probeEnv) {
			// Transitive: P1 stops importing t2 (a same-trust DEC of a
			// peer other than the root is not compiled), so the p2 rows
			// leave t0. Direct semantics ignores P1's trust.
			e.nodes["P1"].UpdateLocal(func(p *core.Peer) { p.SetTrust("P2", core.TrustSame) })
			e.root.SetNeighbor("P1", e.nodes["P1"].BoundAddr())
		}, refresh},
		{"remote write inside the TTL", func(e *probeEnv) {
			e.nodes["P1"].UpdateLocal(func(p *core.Peer) { p.Fact("t1", "p1_k9", "late") })
			e.nodes["P2"].UpdateLocal(func(p *core.Peer) { p.Fact("t2", "p2_k0", "late") })
		}, []step{
			// Both paths read the cached relations until they expire.
			{0, all, viaProbe, true}, {0, keyed, viaProbe, true},
			{2 * time.Hour, all, viaFull, false}, {0, keyed, viaFull, false},
		}},
		{"relation TTL expiry", func(e *probeEnv) {
			e.nodes["P1"].UpdateLocal(func(p *core.Peer) { p.Fact("t1", "p1_k9", "late") })
			e.nodes["P2"].UpdateLocal(func(p *core.Peer) { p.Fact("t2", "p2_k0", "late") })
		}, []step{{45 * time.Minute, all, viaFull, false}, {0, keyed, viaFull, false}}},
		{"spec TTL expiry", func(e *probeEnv) {
			// A remote spec change no SetNeighbor announces.
			e.nodes["P1"].UpdateLocal(func(p *core.Peer) { p.SetTrust("P2", core.TrustSame) })
		}, []step{
			// The relations expire first: the full path refetches them
			// and still reads the cached specs, and the probe then
			// serves the other shape from the same state.
			{45 * time.Minute, all, viaFull, true}, {0, keyed, viaProbe, true},
			{20 * time.Minute, all, viaFull, false}, {0, keyed, viaFull, false},
		}},
	}
	for _, transitive := range []bool{true, false} {
		for _, tc := range cases {
			mode := "transitive"
			if !transitive {
				mode = "direct-noincremental"
			}
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				e := newProbeEnv(t, transitive)
				for _, q := range []string{all, keyed} {
					e.ask(t, q, viaFull, false)
					e.ask(t, q, viaProbe, false)
				}
				tc.change(e)
				for _, a := range tc.after {
					e.now = e.now.Add(a.wait)
					e.ask(t, a.q, a.path, a.stale)
				}
				// A fresh plan and key serve the repeats.
				e.ask(t, all, viaProbe, false)
				e.ask(t, keyed, viaProbe, false)
			})
		}
	}
}

// TestWarmHitAllocsIndependentOfData: a warm transitive repeat is served
// by the probe, which reads no tuple, so it allocates the same whatever
// the size of the data (the full path re-inserts every cached remote
// tuple into its snapshot).
func TestWarmHitAllocsIndependentOfData(t *testing.T) {
	allocs := func(facts int) float64 {
		nodes := startNetwork(t, workload.Chain(4, facts, 1), NewInProc())
		root := nodes["P0"]
		root.CacheTTL = time.Hour
		q := foquery.MustParse("t0(p0_k0,Y)")
		var err error
		repeat := func() {
			if _, e := root.AnswerQuery(q, []string{"Y"}, QueryOptions{Transitive: true}); e != nil {
				err = e
			}
		}
		// The first answer takes the full path; the first probe hashes
		// each relation-cache entry once.
		repeat()
		repeat()
		n := testing.AllocsPerRun(50, repeat)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if small, large := allocs(50), allocs(500); small != large {
		t.Fatalf("warm transitive repeat allocates %v on Chain(4,50) but %v on Chain(4,500)", small, large)
	}
}

// TestWarmHitProbeConcurrent races warm-hit probes against root writes
// that change data and spec, and against a remote spec change announced
// by SetNeighbor. Once quiesced, every shape must answer like the
// oracle, and every query must have been counted once.
func TestWarmHitProbeConcurrent(t *testing.T) {
	sys := workload.Chain(3, 5, 1)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["P0"]
	root.CacheTTL = time.Hour
	shapes := []struct {
		q    string
		vars []string
	}{
		{"t0(X,Y)", []string{"X", "Y"}},
		{"t0(p2_k0,Y)", []string{"Y"}},
		{"t0(p0_k1,Y)", []string{"Y"}},
	}
	ask := func(i int) error {
		s := shapes[i%len(shapes)]
		_, err := root.AnswerQuery(foquery.MustParse(s.q), s.vars, QueryOptions{Transitive: true})
		return err
	}
	var asked atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := ask(i); err != nil {
					t.Error(err)
					return
				}
				asked.Add(1)
			}
		}(r)
	}
	trust := []core.TrustLevel{core.TrustSame, core.TrustLess}
	for i := 0; i < 24; i++ {
		row := relation.Tuple{fmt.Sprint("w", i/4), "x"}
		switch i % 4 {
		case 0:
			root.UpdateLocal(func(p *core.Peer) { p.Fact("t0", row...) })
		case 1:
			root.UpdateLocal(func(p *core.Peer) {
				p.Declare(fmt.Sprint("extra", i), 1).SetTrust("P2", trust[i/4%2])
			})
		case 2:
			root.UpdateLocal(func(p *core.Peer) { p.Inst.Delete("t0", row) })
		case 3:
			nodes["P1"].UpdateLocal(func(p *core.Peer) { p.SetTrust("P2", trust[i/4%2]) })
			root.SetNeighbor("P1", nodes["P1"].BoundAddr())
		}
		// Let the readers see each state.
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	for _, s := range shapes {
		q := foquery.MustParse(s.q)
		got, err := root.AnswerQuery(q, s.vars, QueryOptions{Transitive: true})
		if err != nil {
			t.Fatal(err)
		}
		asked.Add(1)
		want, err := testutil.Oracle(sys, "P0", q, s.vars, true)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s after the race = %v, oracle %v", s.q, got, want)
		}
	}
	requireQueryAccounting(t, root, asked.Load())
}

// TestDirectIncrementalSkipsProbe: a direct query on a node with
// incremental maintenance never takes the warm-hit probe, because a
// probe hit has no snapshot to seed a series from. A write burst that
// overflows the journal but leaves the data as it was drops the series;
// the repeat is then an answer-cache hit of the full path, which
// reseeds, so the next write is patched instead of solved.
func TestDirectIncrementalSkipsProbe(t *testing.T) {
	sys := workload.ScatteredConflicts(4, 3, 11)
	root := startNetwork(t, sys, NewInProc())["A"]
	root.CacheTTL = time.Minute
	q := foquery.MustParse("ra0(X,Y)")
	vars := []string{"X", "Y"}
	ask := func() {
		t.Helper()
		got, err := root.AnswerQuery(q, vars, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := testutil.Oracle(sys, "A", q, vars, false)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("answers %v, oracle %v", got, want)
		}
	}
	ask()
	root.UpdateLocal(func(p *core.Peer) {
		for i := 0; i < relation.DefaultJournalCap; i++ {
			p.Fact("ra2", fmt.Sprint("burst", i), "v")
		}
		for i := 0; i < relation.DefaultJournalCap; i++ {
			p.Inst.Delete("ra2", relation.Tuple{fmt.Sprint("burst", i), "v"})
		}
	})
	before := root.Stats()
	ask()
	if st := root.Stats(); st.AnswerCacheHits != before.AnswerCacheHits+1 || st.IncrFallbacks != before.IncrFallbacks+1 || st.IncrSeeded != before.IncrSeeded+1 {
		t.Fatalf("after the burst: %+v, want one hit, one dropped series and one reseeding (before %+v)", st, before)
	}
	root.UpdateLocal(func(p *core.Peer) { p.Fact("ra2", "w0", "v") })
	before = root.Stats()
	ask()
	if st := root.Stats(); st.IncrPatched != before.IncrPatched+1 || st.SolverRuns != before.SolverRuns {
		t.Fatalf("after a write: patched %d -> %d, solver runs %d -> %d; want a patch and no solve",
			before.IncrPatched, st.IncrPatched, before.SolverRuns, st.SolverRuns)
	}
	requireQueryAccounting(t, root, 3)
}

// TestPlanTableBounded: the plan memo keeps at most maxPlans shapes,
// like the series table.
func TestPlanTableBounded(t *testing.T) {
	root := startNetwork(t, workload.Chain(2, 3, 1), NewInProc())["P0"]
	root.CacheTTL = time.Hour
	for i := 0; i < maxPlans+8; i++ {
		q := foquery.MustParse(fmt.Sprintf("t0(k%d,Y)", i))
		if _, err := root.AnswerQuery(q, []string{"Y"}, QueryOptions{Transitive: true}); err != nil {
			t.Fatal(err)
		}
	}
	root.cacheMu.Lock()
	n := len(root.plans)
	root.cacheMu.Unlock()
	if n != maxPlans {
		t.Fatalf("plan table holds %d shapes, want the bound %d", n, maxPlans)
	}
}
