package constraint

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/term"
)

// deltaDeps has one dependency of each shape the delta kernel handles
// over r/2, s/2, t/2: an FD (a self-join), a cross-relation key EGD, a
// denial with a condition, a full TGD, an existential TGD, a full TGD
// whose body has a constant, and a TGD whose head predicate is its body
// predicate.
func deltaDeps() []*Dependency {
	x, y, w := term.V("X"), term.V("Y"), term.V("W")
	return []*Dependency{
		FD("fd_r", "r"),
		KeyEGD("key_rs", "r", "s"),
		{
			Name: "deny_rs",
			Body: []term.Atom{term.NewAtom("r", x, y), term.NewAtom("s", y, x)},
			Cond: []Comparison{{Op: "!=", L: x, R: y}},
		},
		Inclusion("inc_st", "s", "t", 2),
		{
			Name:   "ex_rt",
			Body:   []term.Atom{term.NewAtom("r", x, y)},
			ExVars: []string{"W"},
			Head:   []term.Atom{term.NewAtom("t", y, w)},
		},
		{
			Name: "const_rs",
			Body: []term.Atom{term.NewAtom("r", x, term.C("a")), term.NewAtom("s", x, y)},
			Head: []term.Atom{term.NewAtom("t", y, x)},
		},
		{
			Name: "sym_t",
			Body: []term.Atom{term.NewAtom("t", x, y)},
			Head: []term.Atom{term.NewAtom("t", y, x)},
		},
	}
}

func keysOf(vs []Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.Key())
	}
	return out
}

func usesCount(v Violation, facts []relation.Fact) int {
	n := 0
	for _, f := range facts {
		if v.uses([]relation.Fact{f}) {
			n++
		}
	}
	return n
}

// TestViolationsDeltaMatchesFresh checks the delta kernel against a
// fresh Violations(cur) on random small instances and random write
// batches, element for element and in order, with a random skip set.
// The batches go through a journal, as a peer's writes do, and include
// inserting a present fact, deleting an absent one, deleting and then
// re-inserting one fact, inserting and then deleting one, and inserting
// two facts that join each other. BodyMatchesDelta is checked on the
// same cases against the difference of the two states' body matches.
func TestViolationsDeltaMatchesFresh(t *testing.T) {
	deps := deltaDeps()
	rels := []string{"r", "s", "t"}
	vals := []string{"a", "b", "c"}
	var stats struct {
		noop, cancel, twoIns, unwitnessed, witnessed, before, skipped int
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		val := func() string { return vals[rng.Intn(len(vals))] }
		randFact := func() relation.Fact {
			return relation.Fact{Rel: rels[rng.Intn(len(rels))], Tuple: relation.Tuple{val(), val()}}
		}
		prev := relation.NewInstance()
		for i := 3 + rng.Intn(12); i > 0; i-- {
			f := randFact()
			prev.Insert(f.Rel, f.Tuple)
		}
		present := func() relation.Fact {
			f := randFact()
			if ts := prev.Tuples(f.Rel); len(ts) > 0 {
				f.Tuple = ts[rng.Intn(len(ts))]
			}
			return f
		}

		cur := prev.Clone()
		j := relation.NewJournal(0)
		cur.SetJournal(j)
		for i := 1 + rng.Intn(4); i > 0; i-- {
			switch rng.Intn(7) {
			case 0: // insert a present fact (a no-op when it is present)
				f := present()
				if !cur.Insert(f.Rel, f.Tuple) {
					stats.noop++
				}
			case 1: // delete a fact, often an absent one
				f := randFact()
				if !cur.Delete(f.Rel, f.Tuple) {
					stats.noop++
				}
			case 2: // delete and re-insert one fact
				f := present()
				if cur.Delete(f.Rel, f.Tuple) {
					stats.cancel++
				}
				cur.Insert(f.Rel, f.Tuple)
			case 3: // insert and delete one fact
				f := randFact()
				if cur.Insert(f.Rel, f.Tuple) {
					stats.cancel++
				}
				cur.Delete(f.Rel, f.Tuple)
			case 4: // two inserted facts that join each other
				x, y, z := val(), val(), val()
				switch rng.Intn(3) {
				case 0:
					cur.Insert("r", relation.Tuple{x, y})
					cur.Insert("r", relation.Tuple{x, z})
				case 1:
					cur.Insert("r", relation.Tuple{x, y})
					cur.Insert("s", relation.Tuple{x, z})
				default:
					cur.Insert("r", relation.Tuple{x, "a"})
					cur.Insert("s", relation.Tuple{x, y})
				}
			case 5:
				f := present()
				cur.Delete(f.Rel, f.Tuple)
			default:
				f := randFact()
				cur.Insert(f.Rel, f.Tuple)
			}
		}
		changes, ok := j.Since(0)
		if !ok {
			t.Fatal("journal lost the batch")
		}
		d := NetDelta(changes)

		for _, dep := range deps {
			old, err := dep.Violations(prev)
			if err != nil {
				t.Fatal(err)
			}
			var vs []Violation
			skip := map[string]bool{}
			for _, v := range old {
				if rng.Intn(6) == 0 {
					skip[v.Key()] = true
					continue
				}
				vs = append(vs, v)
			}
			fresh, err := dep.Violations(cur)
			if err != nil {
				t.Fatal(err)
			}
			var want []Violation
			for _, v := range fresh {
				if skip[v.Key()] {
					stats.skipped++
					continue
				}
				want = append(want, v)
			}
			got, err := dep.ViolationsDelta(vs, cur, d, func(v Violation) bool { return skip[v.Key()] })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(keysOf(got), keysOf(want)) {
				t.Errorf("seed %d, %s after %v (net +%v -%v) on %s:\ndelta: %q\nfresh: %q",
					seed, dep.Name, changes, d.Ins, d.Del, prev, keysOf(got), keysOf(want))
				return false
			}

			// What the case exercised.
			wasListed := map[string]bool{}
			for _, v := range old {
				wasListed[v.Key()] = true
			}
			isListed := map[string]bool{}
			seenNew := false
			for _, v := range fresh {
				k := v.Key()
				isListed[k] = true
				switch {
				case !wasListed[k]:
					seenNew = true
					if usesCount(v, d.Ins) >= 2 {
						stats.twoIns++
					}
					if usesCount(v, d.Ins) == 0 {
						stats.unwitnessed++
					}
				case seenNew:
					stats.before++
					seenNew = false
				}
			}
			for _, v := range old {
				if !isListed[v.Key()] && usesCount(v, d.Del) == 0 {
					stats.witnessed++
				}
			}

			if !checkBodyMatchesDelta(t, dep, prev, cur, d) {
				t.Errorf("seed %d, %s after %v: BodyMatchesDelta disagrees", seed, dep.Name, changes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Every path of the kernel must have been needed for the lists to
	// come out right; a generator that stops producing one of these
	// cases would leave that path untested.
	if stats.noop == 0 || stats.cancel == 0 || stats.twoIns == 0 || stats.unwitnessed == 0 ||
		stats.witnessed == 0 || stats.before == 0 || stats.skipped == 0 {
		t.Fatalf("generator too weak: %+v", stats)
	}
	t.Logf("cases: %+v", stats)
}

// checkBodyMatchesDelta compares BodyMatchesDelta with the difference
// of the body matches of the two states.
func checkBodyMatchesDelta(t *testing.T, dep *Dependency, prev, cur *relation.Instance, d Delta) bool {
	t.Helper()
	matches := func(in *relation.Instance) map[string]bool {
		out := map[string]bool{}
		if err := dep.BodyMatches(in, func(s term.Subst) error {
			out[Violation{Dep: dep, Subst: s}.Key()] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	was, is := matches(prev), matches(cur)
	made, lost := map[string]int{}, map[string]int{}
	if err := dep.BodyMatchesDelta(cur, d, func(s term.Subst, created bool) error {
		if created {
			made[Violation{Dep: dep, Subst: s}.Key()]++
		} else {
			lost[Violation{Dep: dep, Subst: s}.Key()]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	diff := func(a, b map[string]bool) map[string]int {
		out := map[string]int{}
		for k := range a {
			if !b[k] {
				out[k] = 1
			}
		}
		return out
	}
	return reflect.DeepEqual(made, diff(is, was)) && reflect.DeepEqual(lost, diff(was, is))
}

// TestNetDelta: a fact's first and last change decide its net status.
func TestNetDelta(t *testing.T) {
	f := func(v string) relation.Fact { return relation.Fact{Rel: "r", Tuple: relation.Tuple{v}} }
	ins := func(v string) relation.Change { return relation.Change{Fact: f(v), Insert: true} }
	del := func(v string) relation.Change { return relation.Change{Fact: f(v)} }
	got := NetDelta([]relation.Change{
		ins("a"), del("b"), del("c"), ins("c"), ins("d"), del("d"), ins("e"), del("e"), ins("e"),
	})
	want := Delta{Ins: []relation.Fact{f("a"), f("e")}, Del: []relation.Fact{f("b")}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NetDelta = %+v, want %+v", got, want)
	}
	if got := NetDelta(nil); got.Ins != nil || got.Del != nil {
		t.Fatalf("NetDelta(nil) = %+v", got)
	}
	if got := (Delta{Ins: []relation.Fact{f("a"), {Rel: "s"}}, Del: []relation.Fact{f("b")}}).AppendPreds(nil); !reflect.DeepEqual(got, []string{"r", "s"}) {
		t.Fatalf("AppendPreds = %v", got)
	}
}

// TestMatchOrderIsKeyOrder: the merge order compares tuples as their
// rendered Keys do, also when one value is a prefix of another.
func TestMatchOrderIsKeyOrder(t *testing.T) {
	vals := []string{"", "a", "ab", "a\x01", "b", "k1", "k10", "k2"}
	order := matchOrder([]term.Atom{term.NewAtom("r", term.V("X"), term.V("Y"))})
	for _, x1 := range vals {
		for _, y1 := range vals {
			for _, x2 := range vals {
				for _, y2 := range vals {
					a := term.Subst{"X": term.C(x1), "Y": term.C(y1)}
					b := term.Subst{"X": term.C(x2), "Y": term.C(y2)}
					ka, kb := relation.Tuple{x1, y1}.Key(), relation.Tuple{x2, y2}.Key()
					want := 0
					if ka < kb {
						want = -1
					} else if ka > kb {
						want = 1
					}
					if got := order(a, b); got != want {
						t.Fatalf("order (%q,%q) against (%q,%q) = %d, want %d", x1, y1, x2, y2, got, want)
					}
				}
			}
		}
	}
}
