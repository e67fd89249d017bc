package core_test

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	. "repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/slice"
	"repro/internal/workload"
)

// TestReduceSingleStage pins the two reducible trust shapes, the
// non-reducible mixed shape, and the KeepDep filter's effect on which
// shape applies.
func TestReduceSingleStage(t *testing.T) {
	t.Run("less-trust plus IC reduces with foreign rels fixed", func(t *testing.T) {
		p1 := NewPeer("P1").Declare("r1", 2).
			SetTrust("P2", TrustLess).
			AddDEC("P2", constraint.Inclusion("inc", "r2", "r1", 2)).
			AddIC(constraint.FD("fd", "r1"))
		p2 := NewPeer("P2").Declare("r2", 2)
		s := NewSystem().MustAddPeer(p1).MustAddPeer(p2)

		deps, fixed, ok := ReduceSingleStage(s, "P1", SolveOptions{})
		if !ok {
			t.Fatal("less-trust + IC shape did not reduce")
		}
		if len(deps) != 2 {
			t.Fatalf("deps = %d, want 2 (DEC + IC)", len(deps))
		}
		if !fixed["r2"] || fixed["r1"] {
			t.Fatalf("fixed = %v, want exactly the foreign relation r2", fixed)
		}
	})

	t.Run("same-trust only reduces with same-trust peers mutable", func(t *testing.T) {
		a := NewPeer("A").Declare("ra", 2).
			SetTrust("B", TrustSame).
			AddDEC("B", constraint.KeyEGD("k", "ra", "rb"))
		b := NewPeer("B").Declare("rb", 2)
		c := NewPeer("C").Declare("rc", 2)
		s := NewSystem().MustAddPeer(a).MustAddPeer(b).MustAddPeer(c)

		deps, fixed, ok := ReduceSingleStage(s, "A", SolveOptions{})
		if !ok {
			t.Fatal("same-trust-only shape did not reduce")
		}
		if len(deps) != 1 || deps[0].Name != "k" {
			t.Fatalf("deps = %v, want the single same-trust DEC", deps)
		}
		if fixed["ra"] || fixed["rb"] || !fixed["rc"] {
			t.Fatalf("fixed = %v, want only the uninvolved peer's rc", fixed)
		}
	})

	t.Run("same-trust mixed with IC does not reduce", func(t *testing.T) {
		a := NewPeer("A").Declare("ra", 2).
			SetTrust("B", TrustSame).
			AddDEC("B", constraint.KeyEGD("k", "ra", "rb")).
			AddIC(constraint.FD("fd", "ra"))
		b := NewPeer("B").Declare("rb", 2)
		s := NewSystem().MustAddPeer(a).MustAddPeer(b)

		if _, _, ok := ReduceSingleStage(s, "A", SolveOptions{}); ok {
			t.Fatal("same-trust DEC + local IC reduced; two-stage composition required")
		}

		// Filtering the IC out (as a slice that drops it would) makes
		// the same system reduce through the same-trust branch.
		opt := SolveOptions{KeepDep: func(d *constraint.Dependency) bool { return d.Name != "fd" }}
		deps, fixed, ok := ReduceSingleStage(s, "A", opt)
		if !ok {
			t.Fatal("KeepDep-filtered same-trust shape did not reduce")
		}
		if len(deps) != 1 || deps[0].Name != "k" {
			t.Fatalf("deps = %v, want only the same-trust DEC", deps)
		}
		if fixed["ra"] || fixed["rb"] {
			t.Fatalf("fixed = %v, want both same-trust peers mutable", fixed)
		}
	})

	t.Run("unknown peer", func(t *testing.T) {
		s := NewSystem().MustAddPeer(NewPeer("A").Declare("ra", 1))
		if _, _, ok := ReduceSingleStage(s, "Z", SolveOptions{}); ok {
			t.Fatal("unknown peer reduced")
		}
	})

	// Every workload generator shape that reduces: repairing the reduced
	// problem gives exactly SolutionsFor's solutions, key for key.
	wide := workload.WideUniverse(3, 2, 4, 2, 1)
	sl, err := slice.ForQuery(wide, "P0", foquery.MustParse("q0(X,Y)"), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *System
		peer PeerID
		opt  SolveOptions
	}{
		{"Chain", workload.Chain(3, 4, 1), "P0", SolveOptions{}},
		{"ReferentialShaped", workload.ReferentialShaped(2, 2, 1, 1), "P", SolveOptions{}},
		{"IndependentConflicts", workload.IndependentConflicts(3), "A", SolveOptions{}},
		{"ScatteredConflicts", workload.ScatteredConflicts(3, 2, 1), "A", SolveOptions{}},
		{"ChurnUniverse", workload.ChurnUniverse(3, 2, 1), "A", SolveOptions{}},
		{"WideUniverse sliced", wide, "P0", SolveOptions{KeepDep: sl.KeepDep, RelevantRels: sl.RelevantRels()}},
		{"DelegationFanout root", workload.DelegationFanout(2, 3, 1, 2, 1), "P0", SolveOptions{}},
		{"DelegationFanout hub", workload.DelegationFanout(2, 3, 1, 2, 1), "H0", SolveOptions{}},
		{"LargeUniverse", workload.LargeUniverse(20, 2, 2, 4, 1), "P0", SolveOptions{}},
	} {
		t.Run("workload "+tc.name, func(t *testing.T) {
			deps, fixed, ok := ReduceSingleStage(tc.s, tc.peer, tc.opt)
			if !ok {
				t.Fatal("did not reduce")
			}
			global := tc.s.Global()
			if tc.opt.RelevantRels != nil {
				global = global.RestrictRels(tc.opt.RelevantRels)
			}
			reps, err := repair.Repairs(global, deps, repair.Options{Fixed: fixed})
			if err != nil {
				t.Fatal(err)
			}
			sols, err := SolutionsFor(tc.s, tc.peer, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := instanceKeys(reps), instanceKeys(sols); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("reduced repairs diverge from the solutions:\nreduced   %q\nsolutions %q", got, want)
			}
		})
	}
	if _, _, ok := ReduceSingleStage(workload.Example1Shaped(3, 1, 1, 1), "P1", SolveOptions{}); ok {
		t.Fatal("Example1Shaped reduced: it has less-trust and same-trust DECs")
	}
}

func instanceKeys(insts []*relation.Instance) []string {
	keys := make([]string, len(insts))
	for i, in := range insts {
		keys[i] = in.Key()
	}
	return keys
}
