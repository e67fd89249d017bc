// Delegated-answering equivalence tests: a delegated query
// (QueryOptions.Delegate) — the distributed execution path that fans
// atomic sub-queries out to the owning peers over OpPCA and composes
// their answer sets — must return byte-identical answers AND errors to
// the centralized sliced path of AnswerQuery, on the paper's fixtures
// and on seeded workloads, at several parallelism levels, under both
// semantics. The exactness gate (slice.PlanDelegation) makes every
// inexact shape fall back to the centralized path, so equivalence must
// hold whether a case delegates or not; where the expected outcome is
// known, the tests also pin it, so delegation-expected cases cannot
// silently degrade into vacuous fallback-vs-fallback comparisons.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
	"repro/internal/workload"
)

// delegationLevels is the parallelism sweep of the equivalence tests.
var delegationLevels = []int{1, 4}

// expectation pins the delegation outcome of a case: expectDelegated /
// expectFallback where the plan's fate is known, dontCare for seeded
// shapes whose shape varies with the seed.
type expectation int

const (
	dontCare expectation = iota
	expectDelegated
	expectFallback
)

// startDelegationNetwork deploys a system on a fresh in-process
// transport at the given parallelism and returns the nodes.
func startDelegationNetwork(t *testing.T, sys *core.System, par int) map[core.PeerID]*peernet.Node {
	t.Helper()
	nodes, stop, err := peernet.Deploy(sys, peernet.NewInProc())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	for _, n := range nodes {
		n.Parallelism = par
	}
	return nodes
}

// requireDelegatedEquivalent compares the delegated and centralized
// paths for one (system, root, query) triple across the parallelism
// sweep, enforcing the expected delegation outcome.
func requireDelegatedEquivalent(t *testing.T, name string, build func() *core.System, id core.PeerID, query string, vars []string, transitive bool, expect expectation) {
	t.Helper()
	q := foquery.MustParse(query)
	for _, par := range delegationLevels {
		nodes := startDelegationNetwork(t, build(), par)
		root := nodes[id]
		central, centralErr := root.AnswerQuery(q, vars, peernet.QueryOptions{Transitive: transitive})
		var info peernet.DelegationInfo
		deleg, delegErr := root.AnswerQuery(q, vars, peernet.QueryOptions{Transitive: transitive, Delegate: true, Delegation: &info})
		centralFP := fmt.Sprintf("pca=%v err=%v", central, centralErr)
		delegFP := fmt.Sprintf("pca=%v err=%v", deleg, delegErr)
		if centralFP != delegFP {
			t.Fatalf("%s: delegated path diverges at parallelism=%d:\n--- central ---\n%s\n--- delegated ---\n%s",
				name, par, centralFP, delegFP)
		}
		switch expect {
		case expectDelegated:
			if !info.Delegated {
				t.Fatalf("%s: expected delegation, fell back: %s", name, info.Reason)
			}
		case expectFallback:
			if info.Delegated {
				t.Fatalf("%s: expected fallback, but the plan ran (delegates=%v fetches=%v)",
					name, info.Delegates, info.Fetches)
			}
		}
	}
}

// TestDelegatedEquivalenceFixtures sweeps the paper's fixture systems
// under both semantics. Direct cases always fall back (Definition 4
// reads neighbour data raw); Example 1 transitive delegates as a pure
// fetch plan; Example 4 transitive delegates the repairing peer Q.
func TestDelegatedEquivalenceFixtures(t *testing.T) {
	cases := []struct {
		name       string
		build      func() *core.System
		peer       core.PeerID
		query      string
		vars       []string
		transitive bool
		expect     expectation
	}{
		{"Example1/P1/direct", core.Example1System, "P1", "r1(X,Y)", []string{"X", "Y"}, false, expectFallback},
		{"Example1/P1/transitive", core.Example1System, "P1", "r1(X,Y)", []string{"X", "Y"}, true, expectDelegated},
		{"Section31/P/direct", core.Section31System, "P", "r1(X,Y)", []string{"X", "Y"}, false, expectFallback},
		{"Section31/P/transitive", core.Section31System, "P", "r1(X,Y)", []string{"X", "Y"}, true, expectDelegated},
		{"Example4/P/direct", core.Example4System, "P", "r1(X,Y)", []string{"X", "Y"}, false, expectFallback},
		{"Example4/P/transitive", core.Example4System, "P", "r1(X,Y)", []string{"X", "Y"}, true, expectDelegated},
		{"Example4/P/transitive/r2", core.Example4System, "P", "r2(X,Y)", []string{"X", "Y"}, true, expectDelegated},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			requireDelegatedEquivalent(t, tc.name, tc.build, tc.peer, tc.query, tc.vars, tc.transitive, tc.expect)
		})
	}
}

// TestDelegatedEquivalenceFallbackShapes: transitive shapes the
// exactness gate must refuse — a non-forced remote constraint and a
// same-trust overlay at a non-root peer — still answer identically
// through the fallback.
func TestDelegatedEquivalenceFallbackShapes(t *testing.T) {
	importBase := func() (*core.Peer, *core.Peer, *core.Peer) {
		r := core.NewPeer("R").Declare("tr", 2).Fact("tr", "r", "1").
			SetTrust("A", core.TrustLess).
			AddDEC("A", constraint.Inclusion("incRA", "ta", "tr", 2))
		a := core.NewPeer("A").Declare("ta", 2).Fact("ta", "a", "1")
		b := core.NewPeer("B").Declare("ub", 2).Fact("ub", "a", "1")
		return r, a, b
	}
	t.Run("non-forced-remote-egd", func(t *testing.T) {
		t.Parallel()
		build := func() *core.System {
			r, a, b := importBase()
			// ta and ua are both A's: deleting either repairs a violation,
			// so A's solution is not unique and delegation is refused.
			a.Declare("ua", 2).Fact("ua", "a", "2").
				SetTrust("B", core.TrustLess).
				AddDEC("B", constraint.KeyEGD("egdA", "ta", "ua"))
			return core.NewSystem().MustAddPeer(r).MustAddPeer(a).MustAddPeer(b)
		}
		requireDelegatedEquivalent(t, t.Name(), build, "R", "tr(X,Y)", []string{"X", "Y"}, true, expectFallback)
	})
	t.Run("same-trust-at-non-root", func(t *testing.T) {
		t.Parallel()
		build := func() *core.System {
			r, a, b := importBase()
			// The combined program ignores A's same-trust DEC; a delegate
			// answering its own query would enforce it.
			a.SetTrust("B", core.TrustSame).
				AddDEC("B", constraint.KeyEGD("egdAB", "ta", "ub"))
			return core.NewSystem().MustAddPeer(r).MustAddPeer(a).MustAddPeer(b)
		}
		requireDelegatedEquivalent(t, t.Name(), build, "R", "tr(X,Y)", []string{"X", "Y"}, true, expectFallback)
	})
}

// TestDelegatedEquivalenceSeeded sweeps 20 seeds across the generator
// shapes: transitive chains and delegation fanouts (which must run the
// delegated plan), plus the direct-semantics shapes (which must fall
// back), at Parallelism {1,4} each.
func TestDelegatedEquivalenceSeeded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("chain/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.Chain(2+int(seed%3), 1+int(seed%3), seed)
			}
			requireDelegatedEquivalent(t, t.Name(), build, "P0", "t0(X,Y)", []string{"X", "Y"}, true, expectDelegated)
		})
		t.Run(fmt.Sprintf("fanout/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.DelegationFanout(1+int(seed%3), 1+int(seed%4), 1+int(seed%2), int(seed%5), seed)
			}
			requireDelegatedEquivalent(t, t.Name(), build, "P0", "r0(X,Y)", []string{"X", "Y"}, true, expectDelegated)
		})
		t.Run(fmt.Sprintf("chain-direct/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.Chain(2+int(seed%3), 1+int(seed%3), seed)
			}
			requireDelegatedEquivalent(t, t.Name(), build, "P0", "t0(X,Y)", []string{"X", "Y"}, false, expectFallback)
		})
		t.Run(fmt.Sprintf("example1shaped/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.Example1Shaped(2+int(seed%5), 1+int(seed%3), 1+int(seed%2), seed)
			}
			requireDelegatedEquivalent(t, t.Name(), build, "P1", "r1(X,Y)", []string{"X", "Y"}, false, expectFallback)
		})
		t.Run(fmt.Sprintf("wide/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.WideUniverse(2+int(seed%3), 2, 2+int(seed%4), int(seed%3), seed)
			}
			requireDelegatedEquivalent(t, t.Name(), build, "P0", "q0(X,Y)", []string{"X", "Y"}, false, expectFallback)
		})
		t.Run(fmt.Sprintf("referential/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.ReferentialShaped(1+int(seed%2), 1+int(seed%2), int(seed%3), seed)
			}
			requireDelegatedEquivalent(t, t.Name(), build, "P", "r1(X,Y)", []string{"X", "Y"}, false, expectFallback)
		})
	}
}
