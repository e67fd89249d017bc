package peernet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/term"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestIncrAnswerPatchesInsteadOfResolving pins the payoff: after a
// warm query, a relevant write to an untouched conflict component is
// absorbed by the incremental path — no solver run, the answer-cache
// entry is promoted in place — and the answers still match the
// in-memory oracle byte for byte.
func TestIncrAnswerPatchesInsteadOfResolving(t *testing.T) {
	sys := workload.ScatteredConflicts(4, 3, 11)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["A"]
	root.CacheTTL = time.Minute
	q := foquery.MustParse("ra0(X,Y)")
	vars := []string{"X", "Y"}

	if _, err := root.AnswerQuery(q, vars, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if seeded := root.Stats().IncrSeeded; seeded != 1 {
		t.Fatalf("seeded = %d, want 1", seeded)
	}
	runsBefore := root.Stats().SolverRuns

	// A write to ra2: fingerprint moves (a plain content-addressed
	// cache would miss), but the queried component is untouched.
	root.UpdateLocal(func(p *core.Peer) { p.Fact("ra2", "w0", "v") })
	got, err := root.AnswerQuery(q, vars, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if patched := root.Stats().IncrPatched; patched != 1 {
		t.Fatalf("patched = %d, want 1", patched)
	}
	if runs := root.Stats().SolverRuns; runs != runsBefore {
		t.Fatalf("solver ran %d times after the write, want 0 (incremental patch)", runs-runsBefore)
	}
	want, err := testutil.Oracle(sys, root.Peer.ID, q, vars, false)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("patched answers diverge:\nincr   %v\noracle %v", got, want)
	}

	// The promoted entry serves the next (write-free) repeat query, which
	// counts as a hit and not as another patch.
	before := root.Stats()
	if _, err := root.AnswerQuery(q, vars, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if after := root.Stats(); after.AnswerCacheHits != before.AnswerCacheHits+1 || after.IncrPatched != before.IncrPatched {
		t.Fatalf("promoted entry: hits %d -> %d, patched %d -> %d; want one more hit, no patch",
			before.AnswerCacheHits, after.AnswerCacheHits, before.IncrPatched, after.IncrPatched)
	}
	requireQueryAccounting(t, root, 3)
}

// TestIncrNoIncrementalKnob: with the A/B knob set, the same write
// pattern recomputes — solver runs advance — and the answers agree
// with the incremental arm's.
func TestIncrNoIncrementalKnob(t *testing.T) {
	sys := workload.ScatteredConflicts(4, 3, 11)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["A"]
	root.CacheTTL = time.Minute
	root.NoIncremental = true
	q := foquery.MustParse("ra0(X,Y)")
	vars := []string{"X", "Y"}

	if _, err := root.AnswerQuery(q, vars, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	runsBefore := root.Stats().SolverRuns
	root.UpdateLocal(func(p *core.Peer) { p.Fact("ra2", "w0", "v") })
	if _, err := root.AnswerQuery(q, vars, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	st := root.Stats()
	if st.SolverRuns != runsBefore+1 {
		t.Fatalf("NoIncremental arm: solver runs %d -> %d, want a recompute", runsBefore, st.SolverRuns)
	}
	if st.IncrPatched != 0 || st.IncrSeeded != 0 {
		t.Fatalf("NoIncremental arm touched the incremental path: patched=%d seeded=%d", st.IncrPatched, st.IncrSeeded)
	}
}

// TestChurnInterleavedWritesMatchFreshNode is the churn correctness
// harness: a deterministic randomized interleaving of root writes
// (fresh facts, new conflicts, conflict resolutions) and queries —
// including the shapes that force the incremental path to fall back
// (a disjunction spanning two conflict components, a transitive
// query) — asserting after every query that the served answer is
// byte-identical to the in-memory oracle over the live data, and at
// the end that every query was counted exactly once.
func TestChurnInterleavedWritesMatchFreshNode(t *testing.T) {
	const k = 4
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			sys := workload.ScatteredConflicts(k, 3, int64(17+par))
			nodes := startNetwork(t, sys, NewInProc())
			root := nodes["A"]
			root.CacheTTL = time.Minute
			root.Parallelism = par

			type query struct {
				q          string
				vars       []string
				transitive bool
			}
			queries := []query{
				{"ra0(X,Y)", []string{"X", "Y"}, false},
				{"ra1(X,Y)", []string{"X", "Y"}, false},
				{"ra0(X,Y) | ra1(X,Y)", []string{"X", "Y"}, false}, // spans two components: forced fallback
				{"ra0(X,Y)", []string{"X", "Y"}, true},             // transitive: incremental path not taken
			}
			rng := rand.New(rand.NewSource(int64(23 * par)))
			var asked int64
			for step := 0; step < 40; step++ {
				switch rng.Intn(5) {
				case 0: // fresh clean fact, no new conflict
					rel := fmt.Sprintf("ra%d", rng.Intn(k))
					key := fmt.Sprintf("w%d", step)
					root.UpdateLocal(func(p *core.Peer) { p.Fact(rel, key, "v") })
				case 1: // plant a brand-new conflict against B's value
					rel := fmt.Sprintf("ra%d", rng.Intn(k))
					i := rel[len(rel)-1] - '0'
					key := fmt.Sprintf("c%d", i)
					root.UpdateLocal(func(p *core.Peer) { p.Fact(rel, key, fmt.Sprintf("x%d", step)) })
				case 2: // resolve a conflict by deleting the root side
					i := rng.Intn(k)
					rel := fmt.Sprintf("ra%d", i)
					key := fmt.Sprintf("c%d", i)
					root.UpdateLocal(func(p *core.Peer) {
						for _, tu := range p.Inst.Tuples(rel) {
							if tu[0] == key {
								p.Inst.Delete(rel, tu.Clone())
							}
						}
					})
				default: // query and compare against the oracle
					qq := queries[rng.Intn(len(queries))]
					f := foquery.MustParse(qq.q)
					got, gotErr := root.AnswerQuery(f, qq.vars, QueryOptions{Transitive: qq.transitive})
					asked++
					want, wantErr := testutil.Oracle(sys, root.Peer.ID, f, qq.vars, qq.transitive)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("step %d %s: error diverges: got %v want %v", step, qq.q, gotErr, wantErr)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d %s (transitive=%v): answers diverge:\nserved %v\noracle %v",
							step, qq.q, qq.transitive, got, want)
					}
				}
			}
			if st := root.Stats(); st.IncrSeeded == 0 || st.IncrPatched == 0 {
				t.Fatalf("incremental path never engaged: patched=%d seeded=%d", st.IncrPatched, st.IncrSeeded)
			}
			requireQueryAccounting(t, root, asked)

			// Deterministic epilogue: with live conflicts in BOTH queried
			// components (the churn deletes may have resolved them), the
			// disjunction spans two components with repairs, so the series
			// must fall back to the full path and still match the oracle.
			root.UpdateLocal(func(p *core.Peer) {
				p.Fact("ra0", "c0", "epi0")
				p.Fact("ra1", "c1", "epi1")
			})
			orQ := foquery.MustParse("ra0(X,Y) | ra1(X,Y)")
			orVars := []string{"X", "Y"}
			if _, err := root.AnswerQuery(orQ, orVars, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			root.UpdateLocal(func(p *core.Peer) { p.Fact("ra0", "epi", "v") })
			asked += 2
			got, err := root.AnswerQuery(orQ, orVars, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := testutil.Oracle(sys, root.Peer.ID, orQ, orVars, false)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("post-fallback answers diverge:\nserved %v\noracle %v", got, want)
			}
			if root.Stats().IncrFallbacks == 0 {
				t.Fatal("component-spanning query after a write did not fall back")
			}
			requireQueryAccounting(t, root, asked)
		})
	}
}

// TestChurnConcurrentWritesAndQueries hammers one node with parallel
// writers and readers (run under -race), then quiesces and asserts the
// final served answer matches the in-memory oracle.
func TestChurnConcurrentWritesAndQueries(t *testing.T) {
	const k = 3
	sys := workload.ScatteredConflicts(k, 2, 29)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["A"]
	root.CacheTTL = time.Minute
	root.Parallelism = 2

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rel := fmt.Sprintf("ra%d", (w+i)%k)
				key := fmt.Sprintf("cw%d_%d", w, i)
				root.UpdateLocal(func(p *core.Peer) { p.Fact(rel, key, "v") })
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := foquery.MustParse(fmt.Sprintf("ra%d(X,Y)", r%k))
			for i := 0; i < 25; i++ {
				if _, err := root.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	for i := 0; i < k; i++ {
		q := foquery.MustParse(fmt.Sprintf("ra%d(X,Y)", i))
		got, err := root.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := testutil.Oracle(sys, root.Peer.ID, q, []string{"X", "Y"}, false)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ra%d: final answers diverge:\nserved %v\noracle %v", i, got, want)
		}
	}
}

// TestIncrSeriesInvalidation: spec drift, a wholesale instance
// replacement and TTL expiry drop a series (a fallback, then a
// reseed), never a wrong answer.
func TestIncrSeriesInvalidation(t *testing.T) {
	sys := workload.ScatteredConflicts(3, 2, 31)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["A"]
	now := time.Unix(1000, 0)
	root.clock = func() time.Time { return now }
	root.CacheTTL = time.Minute
	q := foquery.MustParse("ra0(X,Y)")
	vars := []string{"X", "Y"}

	ask := func() []relation.Tuple {
		t.Helper()
		ans, err := root.AnswerQuery(q, vars, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	ask()
	// Spec drift: declaring a new relation must invalidate the series.
	root.UpdateLocal(func(p *core.Peer) { p.Declare("extra", 2).Fact("extra", "a", "b") })
	ask()
	if root.Stats().IncrFallbacks == 0 {
		t.Fatal("spec drift did not invalidate the series")
	}

	// Instance replaced wholesale: UpdateLocal attaches a fresh journal,
	// so the series (tracking the old one) must fall back.
	ask()
	before := root.Stats().IncrFallbacks
	root.UpdateLocal(func(p *core.Peer) {
		fresh := relation.NewInstanceIn(sys.Symtab())
		fresh.AddAll(p.Inst)
		fresh.Insert("ra0", relation.Tuple{"swapped", "v"})
		p.Inst = fresh
	})
	if root.Peer.Inst.Journal() == nil {
		t.Fatal("replaced instance got no journal")
	}
	got := ask()
	if root.Stats().IncrFallbacks == before {
		t.Fatal("instance replacement did not invalidate the series")
	}
	want, err := testutil.Oracle(sys, root.Peer.ID, q, vars, false)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || !strings.Contains(fmt.Sprint(got), "swapped") {
		t.Fatalf("post-replacement answers:\nserved %v\noracle %v", got, want)
	}

	// TTL expiry: advance past the window, write, query — the answer
	// must match the oracle (the series may not serve past expiry).
	now = now.Add(2 * time.Minute)
	root.UpdateLocal(func(p *core.Peer) { p.Fact("ra1", "late", "v") })
	got = ask()
	if want, err = testutil.Oracle(sys, root.Peer.ID, q, vars, false); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-expiry answers diverge:\nserved %v\noracle %v", got, want)
	}
}

// TestDelegateSideCoalescingIncr: two querying roots delegating the
// same sub-query to one hub in a concurrent burst share a single
// delegate-side solve (the hub's flight group), and every client gets
// the centralized path's answers.
func TestDelegateSideCoalescingIncr(t *testing.T) {
	// Two roots R0/R1 import s0 from hub H (forced inclusion repair);
	// the hub filters s0 against leaf L via a one-mutable-atom denial,
	// so both roots' plans delegate s0(X,Y) to H.
	hub := core.NewPeer("H").Declare("s0", 2)
	leaf := core.NewPeer("L").Declare("d0", 2)
	for i := 0; i < 4; i++ {
		hub.Fact("s0", fmt.Sprintf("k%d", i), "v")
	}
	hub.Fact("s0", "flagged", "v")
	leaf.Fact("d0", "flagged", "z")
	hub.SetTrust("L", core.TrustLess).
		AddDEC("L", &constraint.Dependency{
			Name: "flag",
			Body: []term.Atom{
				{Pred: "s0", Args: []term.Term{term.V("X"), term.V("Y")}},
				{Pred: "d0", Args: []term.Term{term.V("X"), term.V("Z")}},
			},
		})
	sys := core.NewSystem().MustAddPeer(hub).MustAddPeer(leaf)
	for i := 0; i < 2; i++ {
		rel := fmt.Sprintf("r%d", i)
		r := core.NewPeer(core.PeerID(fmt.Sprintf("R%d", i))).Declare(rel, 2).
			SetTrust("H", core.TrustLess).
			AddDEC("H", constraint.Inclusion(fmt.Sprintf("imp%d", i), "s0", rel, 2))
		r.Fact(rel, "seed", "v")
		sys.MustAddPeer(r)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}

	tr := NewInProc()
	tr.Latency = 5 * time.Millisecond // widen the in-flight window
	nodes := startNetwork(t, sys, tr)
	hubNode := nodes["H"]

	const burst = 4
	gate := make(chan struct{})
	var wg sync.WaitGroup
	answers := make([][]relation.Tuple, 2*burst)
	errs := make([]error, 2*burst)
	for i := 0; i < 2*burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			n := nodes[core.PeerID(fmt.Sprintf("R%d", i%2))]
			q := foquery.MustParse(fmt.Sprintf("r%d(X,Y)", i%2))
			answers[i], errs[i] = n.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true, Delegate: true})
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
	}
	for i := 0; i < 2*burst; i++ {
		n := nodes[core.PeerID(fmt.Sprintf("R%d", i%2))]
		q := foquery.MustParse(fmt.Sprintf("r%d(X,Y)", i%2))
		want, err := n.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(answers[i]) != fmt.Sprint(want) {
			t.Fatalf("burst query %d diverges:\ndelegated %v\ncentral   %v", i, answers[i], want)
		}
	}
	st := hubNode.Stats()
	leaders, coalesced := st.CoalesceLeaders, st.Coalesced
	if coalesced == 0 {
		t.Fatalf("hub coalesced nothing across the burst (leaders=%d)", leaders)
	}
	if leaders+coalesced < 2*burst {
		t.Fatalf("hub flight accounting: leaders=%d coalesced=%d, want >= %d delegated requests",
			leaders, coalesced, 2*burst)
	}
}
