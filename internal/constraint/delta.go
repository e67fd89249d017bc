package constraint

import (
	"bytes"
	"sort"

	"repro/internal/relation"
	"repro/internal/term"
)

// Delta is the net difference between two states of an instance: Ins
// holds the facts only the new state has, Del the facts only the old
// state had. No fact is in both.
type Delta struct {
	Ins, Del []relation.Fact
}

// NetDelta folds a membership-accurate change sequence (an instance's
// journal suffix, or the changes one repair action made) into the net
// delta between its first and last state. A fact's first change tells
// whether the first state held it and its last change whether the last
// state does, so a fact changed and changed back cancels. Facts keep the
// order of their first change.
func NetDelta(changes []relation.Change) Delta {
	type net struct {
		fact    relation.Fact
		was, is bool
	}
	var nets []net
	var at map[string]int
	if len(changes) > 1 {
		at = make(map[string]int, len(changes))
	}
	for _, c := range changes {
		i := len(nets)
		if at != nil {
			k := c.Fact.Key()
			if j, ok := at[k]; ok {
				i = j
			} else {
				at[k] = i
			}
		}
		if i == len(nets) {
			nets = append(nets, net{fact: c.Fact, was: !c.Insert})
		}
		nets[i].is = c.Insert
	}
	var d Delta
	for _, n := range nets {
		switch {
		case n.is && !n.was:
			d.Ins = append(d.Ins, n.fact)
		case n.was && !n.is:
			d.Del = append(d.Del, n.fact)
		}
	}
	return d
}

// AppendPreds appends the delta's predicates to dst, each once.
func (d Delta) AppendPreds(dst []string) []string {
	for _, fs := range [2][]relation.Fact{d.Ins, d.Del} {
	next:
		for _, f := range fs {
			for _, p := range dst {
				if p == f.Rel {
					continue next
				}
			}
			dst = append(dst, f.Rel)
		}
	}
	return dst
}

// ViolationsDelta returns the dependency's violations in cur, given vs,
// its violations in the state the net delta d turned into cur. The
// result equals Violations(cur) element for element and in order, less
// the violations skip reports (vs must lack them already; a nil skip
// keeps every violation). Only the matches the delta touches are
// evaluated, following the delete-and-rederive discipline of Gupta,
// Mumick & Subrahmanian ("Maintaining views incrementally", SIGMOD
// 1993):
//   - the violations whose body uses a deleted fact are dropped
//     (WithoutFacts);
//   - the body matches that bind at least one body atom to an inserted
//     fact are evaluated against cur (semi-naive evaluation);
//   - for a TGD, the violations whose head an inserted fact may now
//     witness are re-checked, and so are the body matches whose head a
//     deleted fact may have witnessed.
//
// New entries are merged in matchBody's enumeration order, and a match
// found twice (it uses two inserted facts, say) is listed once. vs is
// never modified, and it is returned itself when the delta changes
// nothing for the dependency; a delete-only delta on a dependency
// without head atoms costs exactly WithoutFacts.
func (dep *Dependency) ViolationsDelta(vs []Violation, cur *relation.Instance, d Delta, skip func(Violation) bool) ([]Violation, error) {
	out := WithoutFacts(vs, d.Del)
	bodyIns := touches(dep.Body, d.Ins)
	headIns := touches(dep.Head, d.Ins)
	headDel := touches(dep.Head, d.Del)
	if !bodyIns && !headIns && !headDel {
		return out, nil
	}
	if headIns {
		var err error
		if out, err = dep.dropWitnessed(out, cur, d.Ins); err != nil {
			return nil, err
		}
	}
	var added []Violation
	add := func(s term.Subst) error {
		ok, err := headSatisfied(cur, dep, s)
		if err != nil || ok {
			return err
		}
		if v := (Violation{Dep: dep, Subst: s}); skip == nil || !skip(v) {
			added = append(added, v)
		}
		return nil
	}
	src := cur.MatchingTuplesBuf
	if bodyIns {
		if err := dep.seminaive(src, d.Ins, add); err != nil {
			return nil, err
		}
	}
	if headDel {
		if err := dep.unwitnessed(src, d.Del, add); err != nil {
			return nil, err
		}
	}
	return dep.merge(out, added), nil
}

// BodyMatchesDelta calls fn once for every body match the net delta d
// created (a match in cur that uses an inserted fact; created is true)
// and once for every match it destroyed (a match in the state before d
// that used a deleted fact; created is false), in no particular order.
// It lets a caller keep an aggregate over all body matches current, as
// the repair engine does with the facts a full TGD's matches derive.
func (dep *Dependency) BodyMatchesDelta(cur *relation.Instance, d Delta, fn func(s term.Subst, created bool) error) error {
	var made, lost []term.Subst
	if err := dep.seminaive(cur.MatchingTuplesBuf, d.Ins, func(s term.Subst) error {
		made = append(made, s)
		return nil
	}); err != nil {
		return err
	}
	if err := dep.seminaive(before(cur, d), d.Del, func(s term.Subst) error {
		lost = append(lost, s)
		return nil
	}); err != nil {
		return err
	}
	for _, side := range [2]struct {
		ms      []term.Subst
		created bool
	}{{made, true}, {lost, false}} {
		ms, order := side.ms, matchOrder(dep.Body)
		sort.Slice(ms, func(i, j int) bool { return order(ms[i], ms[j]) < 0 })
		for i, s := range ms {
			if i > 0 && order(ms[i-1], s) == 0 {
				continue
			}
			if err := fn(s, side.created); err != nil {
				return err
			}
		}
	}
	return nil
}

// touches reports whether one of the facts is of an atom's predicate.
func touches(atoms []term.Atom, facts []relation.Fact) bool {
	for _, a := range atoms {
		if hasPred(facts, a.Pred) {
			return true
		}
	}
	return false
}

// hasPred reports whether one of the facts is of the predicate.
func hasPred(facts []relation.Fact, pred string) bool {
	for _, f := range facts {
		if f.Rel == pred {
			return true
		}
	}
	return false
}

// factAtom renders a fact as a ground atom.
func factAtom(f relation.Fact) term.Atom {
	return term.Atom{Pred: f.Rel, Args: term.ConstArgs(nil, f.Tuple)}
}

// seminaive calls fn for every body match that binds some body atom to
// one of the facts and the other atoms to src's tuples: once per
// (atom, fact) binding, so a match using two of the facts comes twice.
func (dep *Dependency) seminaive(src source, facts []relation.Fact, fn func(term.Subst) error) error {
	var trail []string
	for k, a := range dep.Body {
		for _, f := range facts {
			if f.Rel != a.Pred {
				continue
			}
			s := term.NewSubst()
			if trail = trail[:0]; !term.MatchTrail(a, factAtom(f), s, &trail) {
				continue
			}
			if err := matchBody(src, dep.Body, dep.Cond, s, k, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// unwitnessed calls fn for every body match in src whose head one of
// the deleted facts may have witnessed: each head atom is matched with
// each deleted fact of its predicate, and the body is matched under the
// body-variable bindings that gives. A match whose head no deleted fact
// unifies with kept every witness it had.
func (dep *Dependency) unwitnessed(src source, del []relation.Fact, fn func(term.Subst) error) error {
	var trail []string
	for _, h := range dep.Head {
		for _, f := range del {
			if f.Rel != h.Pred {
				continue
			}
			s := term.NewSubst()
			if trail = trail[:0]; !term.MatchTrail(h, factAtom(f), s, &trail) {
				continue
			}
			for _, v := range dep.ExVars {
				delete(s, v)
			}
			if err := matchBody(src, dep.Body, dep.Cond, s, -1, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropWitnessed returns vs without the violations cur now satisfies,
// re-checking only those with a head atom some inserted fact unifies
// with: a violation's head can only gain a witness through an inserted
// fact. vs is not modified.
func (dep *Dependency) dropWitnessed(vs []Violation, cur *relation.Instance, ins []relation.Fact) ([]Violation, error) {
	var out []Violation
	for i, v := range vs {
		drop := false
		if dep.headMayUse(v.Subst, ins) {
			ok, err := headSatisfied(cur, dep, v.Subst)
			if err != nil {
				return nil, err
			}
			drop = ok
		}
		switch {
		case drop && out == nil:
			out = make([]Violation, i, len(vs)-1)
			copy(out, vs[:i])
		case !drop && out != nil:
			out = append(out, v)
		}
	}
	if out == nil {
		return vs, nil
	}
	return out, nil
}

// headMayUse reports whether one of the facts unifies with a head atom
// under s, existential variables matching anything.
func (dep *Dependency) headMayUse(s term.Subst, facts []relation.Fact) bool {
	for _, h := range dep.Head {
	next:
		for _, f := range facts {
			if f.Rel != h.Pred || len(f.Tuple) != len(h.Args) {
				continue
			}
			for k, t := range h.Args {
				if g := s.Lookup(t); !g.IsVar && g.Name != f.Tuple[k] {
					continue next
				}
			}
			return true
		}
	}
	return false
}

// merge returns vs with the added violations merged in matchBody's
// enumeration order. vs must be in that order already. An added entry
// equal to another or to an entry of vs is a match found twice and is
// kept once.
func (dep *Dependency) merge(vs, added []Violation) []Violation {
	if len(added) == 0 {
		return vs
	}
	order := matchOrder(dep.Body)
	cmp := func(a, b Violation) int { return order(a.Subst, b.Subst) }
	sort.Slice(added, func(i, j int) bool { return cmp(added[i], added[j]) < 0 })
	out := make([]Violation, 0, len(vs)+len(added))
	i := 0
	for j, a := range added {
		if j > 0 && cmp(added[j-1], a) == 0 {
			continue
		}
		k := i + sort.Search(len(vs)-i, func(n int) bool { return cmp(vs[i+n], a) >= 0 })
		out = append(out, vs[i:k]...)
		i = k
		if i < len(vs) && cmp(vs[i], a) == 0 {
			continue
		}
		out = append(out, a)
	}
	return append(out, vs[i:]...)
}

// matchOrder returns the comparison of body matches in matchBody's
// enumeration order: lexicographic over the body atoms' ground tuples,
// each compared by its relation.Tuple.Key (the order of the sorted
// relation views). It renders the keys into two buffers it reuses, so
// one comparison must not run concurrently with itself.
func matchOrder(body []term.Atom) func(a, b term.Subst) int {
	var x, y []byte
	return func(a, b term.Subst) int {
		for _, at := range body {
			x, y = appendKey(x[:0], at.Args, a), appendKey(y[:0], at.Args, b)
			if c := bytes.Compare(x, y); c != 0 {
				return c
			}
		}
		return 0
	}
}

// appendKey appends the Key of the arguments' grounding under s.
func appendKey(dst []byte, args []term.Term, s term.Subst) []byte {
	for i, t := range args {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, s.Lookup(t).Name...)
	}
	return dst
}

// before is a tuple source over the state the net delta d turned into
// cur: cur's tuples less the inserted facts, plus the deleted ones. The
// deleted facts are not filtered by the pattern; matchBody's match
// check does that.
func before(cur *relation.Instance, d Delta) source {
	return func(pat term.Atom, buf *[]relation.Tuple) []relation.Tuple {
		ts := cur.MatchingTuplesBuf(pat, buf)
		if !hasPred(d.Ins, pat.Pred) && !hasPred(d.Del, pat.Pred) {
			return ts
		}
		out := make([]relation.Tuple, 0, len(ts)+len(d.Del))
	next:
		for _, t := range ts {
			for _, f := range d.Ins {
				if f.Rel == pat.Pred && f.Tuple.Equal(t) {
					continue next
				}
			}
			out = append(out, t)
		}
		for _, f := range d.Del {
			if f.Rel == pat.Pred {
				out = append(out, f.Tuple)
			}
		}
		return out
	}
}
