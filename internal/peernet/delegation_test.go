package peernet

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/sysdsl"
	"repro/internal/workload"
)

// delegatedInfo answers a query with QueryOptions.Delegate set and
// returns the delegation report alongside.
func delegatedInfo(n *Node, q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, DelegationInfo, error) {
	var info DelegationInfo
	ans, err := n.AnswerQuery(q, vars, QueryOptions{Transitive: transitive, Delegate: true, Delegation: &info})
	return ans, info, err
}

// requireDelegationMatchesCentral asserts that a delegated query and the
// centralized sliced path agree byte-for-byte (answers and errors) for
// one query, and returns the delegation report.
func requireDelegationMatchesCentral(t *testing.T, n *Node, query string, vars []string, transitive bool) DelegationInfo {
	t.Helper()
	q := foquery.MustParse(query)
	central, centralErr := n.AnswerQuery(q, vars, QueryOptions{Transitive: transitive})
	deleg, info, delegErr := delegatedInfo(n, q, vars, transitive)
	if fmt.Sprintf("%v", centralErr) != fmt.Sprintf("%v", delegErr) {
		t.Fatalf("delegated error diverges: central=%v delegated=%v", centralErr, delegErr)
	}
	if fmt.Sprintf("%v", central) != fmt.Sprintf("%v", deleg) {
		t.Fatalf("delegated answers diverge:\ncentral   %v\ndelegated %v", central, deleg)
	}
	return info
}

// TestDelegatedAnswersChain: the transitive import chain delegates hop
// by hop (each peer's inclusion import is a forced repair), and the
// answers match the centralized path at both parallelism levels.
func TestDelegatedAnswersChain(t *testing.T) {
	sys := workload.Chain(3, 2, 7)
	nodes := startNetwork(t, sys, NewInProc())
	for _, par := range []int{1, 4} {
		for _, n := range nodes {
			n.Parallelism = par
		}
		info := requireDelegationMatchesCentral(t, nodes["P0"], "t0(X,Y)", []string{"X", "Y"}, true)
		if !info.Delegated {
			t.Fatalf("chain should delegate, fell back: %s", info.Reason)
		}
		if len(info.Delegates) != 1 || info.Delegates[0] != "P1" {
			t.Fatalf("delegates = %v", info.Delegates)
		}
	}
	if delegated := nodes["P0"].Stats().Delegated; delegated != 2 {
		t.Fatalf("delegated counter = %d, want 2", delegated)
	}
}

// TestDelegatedAnswersFetchOnlyPlan: a plan can consist purely of raw
// fetches (every neighbour is DEC-less); that still counts as a
// delegated run, just one where no remote repair work exists. Example 1
// under the transitive semantics is exactly this shape — including a
// same-trust DEC of the root toward the DEC-less P3, which the gate
// admits.
func TestDelegatedAnswersFetchOnlyPlan(t *testing.T) {
	nodes := startNetwork(t, core.Example1System(), NewInProc())
	info := requireDelegationMatchesCentral(t, nodes["P1"], "r1(X,Y)", []string{"X", "Y"}, true)
	if !info.Delegated {
		t.Fatalf("fetch-only plan should delegate, fell back: %s", info.Reason)
	}
	if len(info.Delegates) != 0 || len(info.Fetches) != 2 {
		t.Fatalf("plan = delegates %v fetches %v, want pure fetches [P2 P3]", info.Delegates, info.Fetches)
	}
}

// TestDelegatedAnswersFanout: the B11 workload delegates to every hub,
// the hubs read their leaves themselves, and the root receives strictly
// fewer bytes than under a central pull — the leaves' d_i relations
// never travel to the root.
func TestDelegatedAnswersFanout(t *testing.T) {
	sys := workload.DelegationFanout(3, 4, 2, 10, 1)
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	// Meter the root's calls only (Meter's Listen passes through, so
	// swapping the transport after Start leaves serving untouched).
	meter := &Meter{T: tr}
	nodes["P0"].tr = meter
	info := requireDelegationMatchesCentral(t, nodes["P0"], "r0(X,Y)", []string{"X", "Y"}, true)
	if !info.Delegated {
		t.Fatalf("fanout should delegate, fell back: %s", info.Reason)
	}
	if len(info.Delegates) != 3 {
		t.Fatalf("delegates = %v, want the three hubs", info.Delegates)
	}
	q := foquery.MustParse("r0(X,Y)")
	meter.Reset()
	if _, _, err := delegatedInfo(nodes["P0"], q, []string{"X", "Y"}, true); err != nil {
		t.Fatal(err)
	}
	_, _, delegRecv := meter.Stats()
	meter.Reset()
	if _, err := nodes["P0"].AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true}); err != nil {
		t.Fatal(err)
	}
	_, _, centralRecv := meter.Stats()
	if delegRecv >= centralRecv {
		t.Fatalf("delegation should reduce the root's bytes received: delegated=%d central=%d", delegRecv, centralRecv)
	}
}

// TestDelegatedAnswersFallbackShapes: every shape the exactness gate
// must refuse falls back to the centralized path — and still answers
// byte-identically.
func TestDelegatedAnswersFallbackShapes(t *testing.T) {
	// R imports ta from A in every custom fixture; the cases vary what
	// else A (or R) enforces.
	base := func() (*core.Peer, *core.Peer, *core.Peer) {
		r := core.NewPeer("R").Declare("tr", 2).Fact("tr", "r", "1").
			SetTrust("A", core.TrustLess).
			AddDEC("A", constraint.Inclusion("incRA", "ta", "tr", 2))
		a := core.NewPeer("A").Declare("ta", 2).Fact("ta", "a", "1")
		b := core.NewPeer("B").Declare("ub", 2).Fact("ub", "b", "1")
		return r, a, b
	}
	cases := []struct {
		name       string
		build      func() *core.System
		peer       core.PeerID
		query      string
		transitive bool
		wantReason string
	}{
		{
			name:       "direct-semantics",
			build:      core.Example1System,
			peer:       "P1",
			query:      "r1(X,Y)",
			transitive: false,
			wantReason: "direct semantics",
		},
		{
			name: "domain-dependent-full-slice",
			build: func() *core.System {
				d, err := sysdsl.ParseConstraint("ref_dom", "r1(X,Y) -> exists W: r2(X,W)")
				if err != nil {
					t.Fatal(err)
				}
				p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
					Fact("r1", "a", "b").
					SetTrust("Q", core.TrustLess).AddDEC("Q", d)
				q := core.NewPeer("Q").Declare("s1", 2).Fact("s1", "c", "d")
				return core.NewSystem().MustAddPeer(p).MustAddPeer(q)
			},
			peer:       "P",
			query:      "r1(X,Y)",
			transitive: true,
			wantReason: "domain-dependent",
		},
		{
			name: "same-trust-at-non-root",
			build: func() *core.System {
				r, a, b := base()
				a.SetTrust("B", core.TrustSame).
					AddDEC("B", constraint.KeyEGD("egdAB", "ta", "ub"))
				return core.NewSystem().MustAddPeer(r).MustAddPeer(a).MustAddPeer(b)
			},
			peer:       "R",
			query:      "tr(X,Y)",
			transitive: true,
			wantReason: "enforces same-trust DECs",
		},
		{
			name: "root-same-trust-toward-repairing-peer",
			build: func() *core.System {
				r, a, b := base()
				r.SetTrust("A", core.TrustSame) // turn the import into a joint repair
				a.SetTrust("B", core.TrustLess).
					AddDEC("B", constraint.Inclusion("incAB", "ub", "ta", 2))
				return core.NewSystem().MustAddPeer(r).MustAddPeer(a).MustAddPeer(b)
			},
			peer:       "R",
			query:      "tr(X,Y)",
			transitive: true,
			wantReason: "joint repair does not factor",
		},
		{
			name: "non-forced-remote-constraint",
			build: func() *core.System {
				r, a, b := base()
				a.Declare("ua", 2).Fact("ua", "a", "2").
					SetTrust("B", core.TrustLess).
					// Two mutable body atoms: deleting either repairs a
					// violation, so A's solution is not unique.
					AddDEC("B", constraint.KeyEGD("egdA", "ta", "ua"))
				return core.NewSystem().MustAddPeer(r).MustAddPeer(a).MustAddPeer(b)
			},
			peer:       "R",
			query:      "tr(X,Y)",
			transitive: true,
			wantReason: "admits repair choices",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nodes := startNetwork(t, tc.build(), NewInProc())
			info := requireDelegationMatchesCentral(t, nodes[tc.peer], tc.query, []string{"X", "Y"}, tc.transitive)
			if info.Delegated {
				t.Fatal("gate should have refused delegation")
			}
			if !strings.Contains(info.Reason, tc.wantReason) {
				t.Fatalf("reason = %q, want substring %q", info.Reason, tc.wantReason)
			}
			st := nodes[tc.peer].Stats()
			if st.DelegationFallbacks == 0 || !strings.Contains(st.LastDelegationFallback, tc.wantReason) {
				t.Fatalf("fallback stats not recorded: fallbacks=%d last=%q", st.DelegationFallbacks, st.LastDelegationFallback)
			}
		})
	}
}

// TestDelegatedAnswersCyclicOverlay: two peers with mutual inclusion
// DECs form a trust cycle. The visited guard makes B (asked by A)
// refuse to delegate back to A, B's central path rejects the cycle, and
// the error A surfaces is the same cyclic-trust error its own central
// path produces.
func TestDelegatedAnswersCyclicOverlay(t *testing.T) {
	a := core.NewPeer("A").Declare("ra", 2).Fact("ra", "a", "1").
		SetTrust("B", core.TrustLess).
		AddDEC("B", constraint.Inclusion("cyc_ab", "rb", "ra", 2))
	b := core.NewPeer("B").Declare("rb", 2).Fact("rb", "b", "2").
		SetTrust("A", core.TrustLess).
		AddDEC("A", constraint.Inclusion("cyc_ba", "ra", "rb", 2))
	sys := core.NewSystem().MustAddPeer(a).MustAddPeer(b)
	nodes := startNetwork(t, sys, NewInProc())
	q := foquery.MustParse("ra(X,Y)")
	central, centralErr := nodes["A"].AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true})
	if centralErr == nil || !strings.Contains(centralErr.Error(), "cyclic") {
		t.Fatalf("central path should reject the cycle, got ans=%v err=%v", central, centralErr)
	}
	deleg, info, delegErr := delegatedInfo(nodes["A"], q, []string{"X", "Y"}, true)
	if delegErr == nil || delegErr.Error() != centralErr.Error() {
		t.Fatalf("delegated error diverges: central=%v delegated=%v (ans=%v)", centralErr, delegErr, deleg)
	}
	if info.Delegated {
		t.Fatal("cycle must not report successful delegation")
	}
}

// failPCATransport fails every delegated OpPCA call, simulating a
// delegate that serves its spec and data but cannot answer queries.
type failPCATransport struct{ Transport }

func (f *failPCATransport) Call(addr string, req Request) (Response, error) {
	if req.Op == OpPCA && req.Delegate {
		return Response{}, fmt.Errorf("injected: delegate unreachable")
	}
	return f.Transport.Call(addr, req)
}

// TestDelegatedAnswersUnreachableDelegate: when the delegate cannot be
// reached over OpPCA the node degrades to the central path and still
// answers; when the peer is gone entirely, both paths fail with an
// error naming the missing endpoint.
func TestDelegatedAnswersUnreachableDelegate(t *testing.T) {
	sys := workload.Chain(3, 2, 3)
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	nodes["P0"].tr = &failPCATransport{Transport: tr} // the root's calls only
	q := foquery.MustParse("t0(X,Y)")
	central, err := nodes["P0"].AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true})
	if err != nil {
		t.Fatal(err)
	}
	deleg, info, err := delegatedInfo(nodes["P0"], q, []string{"X", "Y"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delegated || !strings.Contains(info.Reason, "injected") {
		t.Fatalf("expected fallback on unreachable delegate, info=%+v", info)
	}
	if fmt.Sprintf("%v", central) != fmt.Sprintf("%v", deleg) {
		t.Fatalf("fallback answers diverge: central=%v delegated=%v", central, deleg)
	}
	// Fully stopped delegate: both paths fail with a clear error.
	nodes["P1"].Stop()
	_, _, derr := delegatedInfo(nodes["P0"], q, []string{"X", "Y"}, true)
	if derr == nil || !strings.Contains(derr.Error(), "no peer") {
		t.Fatalf("expected a clear error for the stopped delegate, got %v", derr)
	}
}

// TestDelegationTCPSmoke runs delegated answering over real sockets —
// the CI race job runs this under -race so the TCP path's concurrency
// is covered end to end.
func TestDelegationTCPSmoke(t *testing.T) {
	sys := workload.Chain(3, 2, 11)
	nodes := startNetwork(t, sys, &TCP{})
	info := requireDelegationMatchesCentral(t, nodes["P0"], "t0(X,Y)", []string{"X", "Y"}, true)
	if !info.Delegated {
		t.Fatalf("TCP chain should delegate, fell back: %s", info.Reason)
	}
}

// TestLocalWritesDuringQueries interleaves UpdateLocal writes with
// sliced queries and the remote fetches they trigger: under -race this
// pins the snapshot-aliasing fix (snapshots and exports clone the live
// peer under the data lock instead of sharing its instance).
func TestLocalWritesDuringQueries(t *testing.T) {
	sys := workload.Chain(2, 2, 5)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["P0"]
	q := foquery.MustParse("t0(X,Y)")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			i := i
			root.UpdateLocal(func(p *core.Peer) {
				p.Fact("t0", fmt.Sprintf("w%d", i), "v")
			})
			nodes["P1"].UpdateLocal(func(p *core.Peer) {
				p.Fact("t1", fmt.Sprintf("u%d", i), "v")
			})
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := root.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true}); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	// Once quiesced, the writes are visible to fresh snapshots.
	ans, err := root.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{Transitive: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tup := range ans {
		if tup[0] == "w0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("local write not visible in answers: %v", ans)
	}
}

// TestStartStopConcurrent pins the Start/Stop guard: double Start fails
// cleanly, concurrent Stops are safe (only one performs the shutdown),
// and the node can be restarted afterwards.
func TestStartStopConcurrent(t *testing.T) {
	p := core.NewPeer("P").Declare("r", 1)
	n := NewNode(p, NewInProc(), nil)
	if err := n.Start(":0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(":0"); err == nil {
		t.Fatal("second Start should fail")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Stop()
			_ = n.BoundAddr()
		}()
	}
	wg.Wait()
	n.Stop() // idempotent after shutdown
	if err := n.Start(":0"); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	n.Stop()
}

// TestEmptyRelationRoundTrip pins the nil-vs-empty wire contract: a
// declared-but-empty relation round-trips consistently through OpFetch
// and OpFetchBatch over both transports, and the client decodes it to
// an empty non-nil tuple list even where gob drops zero-length slices.
func TestEmptyRelationRoundTrip(t *testing.T) {
	build := func() *core.System {
		p := core.NewPeer("P").Declare("full", 1).Declare("empty", 1).Fact("full", "x")
		q := core.NewPeer("Q").Declare("other", 1)
		return core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	}
	for name, tr := range map[string]Transport{"inproc": NewInProc(), "tcp": &TCP{}} {
		tr := tr
		t.Run(name, func(t *testing.T) {
			nodes := startNetwork(t, build(), tr)
			// Client boundary: both fetch ops agree on the empty relation.
			got, err := nodes["Q"].FetchRelations("P", []string{"empty", "full"})
			if err != nil {
				t.Fatal(err)
			}
			if got["empty"] == nil || len(got["empty"]) != 0 {
				t.Fatalf("batch empty relation = %#v, want empty non-nil", got["empty"])
			}
			if len(got["full"]) != 1 {
				t.Fatalf("full relation = %v", got["full"])
			}
			single, err := nodes["Q"].FetchRelation("P", "empty")
			if err != nil {
				t.Fatal(err)
			}
			if len(single) != 0 {
				t.Fatalf("single empty relation = %v", single)
			}
			// Raw wire: OpFetch of the empty relation is not an error on
			// either transport, whatever gob does to the empty slice.
			resp, err := tr.Call(nodes["P"].BoundAddr(), Request{Op: OpFetch, Rel: "empty"})
			if err != nil || resp.Err != "" {
				t.Fatalf("OpFetch empty: err=%v respErr=%q", err, resp.Err)
			}
			if len(resp.Tuples) != 0 {
				t.Fatalf("OpFetch empty tuples = %v", resp.Tuples)
			}
		})
	}
}
