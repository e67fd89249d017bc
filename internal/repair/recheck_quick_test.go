package repair

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/constraint"
	"repro/internal/relation"
	"repro/internal/term"
)

// recheckDeps has one dependency of each class over r/2, s/2, t/2: an
// FD and a cross-relation key EGD, a denial with a condition, a full TGD
// and an existential TGD.
func recheckDeps() []*constraint.Dependency {
	x, y, w := term.V("X"), term.V("Y"), term.V("W")
	return []*constraint.Dependency{
		constraint.FD("fd_r", "r"),
		constraint.KeyEGD("key_rs", "r", "s"),
		{
			Name: "deny_rs",
			Body: []term.Atom{term.NewAtom("r", x, y), term.NewAtom("s", y, x)},
			Cond: []constraint.Comparison{{Op: "!=", L: x, R: y}},
		},
		constraint.Inclusion("inc_st", "s", "t", 2),
		{
			Name:   "ex_rt",
			Body:   []term.Atom{term.NewAtom("r", x, y)},
			ExVars: []string{"W"},
			Head:   []term.Atom{term.NewAtom("t", y, w)},
		},
	}
}

func violationKeys(vs []constraint.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.Key())
	}
	return out
}

// derivedFrom reports whether every entry of got that parent also lists
// is parent's own entry, with the same substitution map: a list derived
// from the delta keeps the parent's surviving entries, while a
// recomputed list would hold fresh ones.
func derivedFrom(got, parent []constraint.Violation) bool {
	own := map[string]uintptr{}
	for _, v := range parent {
		own[v.Key()] = reflect.ValueOf(v.Subst).Pointer()
	}
	for _, v := range got {
		if p, ok := own[v.Key()]; ok && p != reflect.ValueOf(v.Subst).Pointer() {
			return false
		}
	}
	return true
}

// TestRecheckMatchesFreshViolations checks the searcher's incremental
// violation lists against a fresh Violations(cur) on random instances
// and actions: element for element, in order, with the skip sets of
// other conflict components applied. Every list is derived from the
// action's delta, never recomputed. Delete-only actions on EGDs and
// denials only filter the parent's lists; the test also counts the
// cases, TGDs and actions that insert, where filtering alone would have
// been wrong.
func TestRecheckMatchesFreshViolations(t *testing.T) {
	deps := recheckDeps()
	rels := []string{"r", "s", "t"}
	vals := []string{"a", "b", "c"}
	var filtered, recomputeNeeded int
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randFact := func() relation.Fact {
			return relation.Fact{Rel: rels[rng.Intn(len(rels))], Tuple: relation.Tuple{vals[rng.Intn(3)], vals[rng.Intn(3)]}}
		}
		parentInst := relation.NewInstance()
		for i := 4 + rng.Intn(14); i > 0; i-- {
			f := randFact()
			parentInst.Insert(f.Rel, f.Tuple)
		}

		// The parent's lists are Violations minus a random skip set, the
		// shape the component searches start from.
		s := &searcher{deps: deps, depIdx: constraint.NewDepIndex(deps), skip: make([]map[string]bool, len(deps))}
		parent := make([][]constraint.Violation, len(deps))
		for i, d := range deps {
			vs, err := d.Violations(parentInst)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				if rng.Intn(4) == 0 {
					if s.skip[i] == nil {
						s.skip[i] = map[string]bool{}
					}
					s.skip[i][v.Key()] = true
					continue
				}
				parent[i] = append(parent[i], v)
			}
		}

		// Delete-only actions (one or two facts, present or not), mixed
		// actions and insert-only actions.
		var act action
		deleteFact := func() {
			f := randFact()
			if ts := parentInst.Tuples(f.Rel); len(ts) > 0 && rng.Intn(5) > 0 {
				f.Tuple = ts[rng.Intn(len(ts))]
			}
			act.deletes = append(act.deletes, f)
		}
		switch kind := rng.Intn(5); {
		case kind < 3:
			deleteFact()
			if kind == 2 {
				deleteFact()
			}
		case kind == 3:
			deleteFact()
			act.inserts = append(act.inserts, randFact())
		default:
			act.inserts = append(act.inserts, randFact())
		}
		cur := parentInst.Clone()
		delta := act.apply(cur)

		got, err := s.recheck(parent, delta, cur, &expandScratch{})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range deps {
			fresh, err := d.Violations(cur)
			if err != nil {
				t.Fatal(err)
			}
			var want []constraint.Violation
			for _, v := range fresh {
				if !s.skip[i][v.Key()] {
					want = append(want, v)
				}
			}
			if !reflect.DeepEqual(violationKeys(got[i]), violationKeys(want)) {
				t.Errorf("seed %d, %s after -%v +%v on %s:\nrecheck: %v\nfresh:   %v",
					seed, d.Name, act.deletes, act.inserts, parentInst, violationKeys(got[i]), violationKeys(want))
				return false
			}
			if !derivedFrom(got[i], parent[i]) {
				t.Errorf("%s after -%v +%v: the list was recomputed, not derived from the delta", d.Name, act.deletes, act.inserts)
				return false
			}
			if d.IsTGD() || len(act.inserts) > 0 {
				if !reflect.DeepEqual(violationKeys(constraint.WithoutFacts(parent[i], act.deletes)), violationKeys(want)) {
					recomputeNeeded++
				}
			} else {
				filtered++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if filtered == 0 || recomputeNeeded == 0 {
		t.Fatalf("generator too weak: %d filtered lists, %d lists where filtering would be wrong", filtered, recomputeNeeded)
	}
}
