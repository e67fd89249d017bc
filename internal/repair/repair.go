// Package repair enumerates the minimal repairs of Definition 1 of the
// paper: consistent instances at minimal symmetric-difference distance
// from a given instance, with a designated set of predicates held
// fixed. It is both the consistent-query-answering baseline [Arenas,
// Bertossi, Chomicki, PODS 99] and the building block of the two-stage
// peer solutions of Definition 4 (implemented in internal/core).
//
// Repairs are searched by branching over the ways of fixing one
// violation at a time: deleting a mutable body atom, or (for
// tuple-generating dependencies) inserting the missing head atoms under
// a witness assignment. Witnesses for existential head variables are
// bound by matching head atoms on fixed predicates against the current
// instance, with active-domain enumeration for any remaining variables,
// which mirrors how the paper's choice-operator programs pick witnesses
// from the trusted peer's data (Section 3.1).
//
// The search runs in deterministic waves so it can fan out across a
// worker pool: each wave takes a fixed-size chunk of pending states,
// filters it through the frontier (visited + subsumption pruning, see
// frontier.go) in canonical order, expands the admitted states —
// violation check, action enumeration, child-delta derivation — on up
// to Options.Parallelism workers, and merges the results back in
// canonical order. Because admission and merging are sequential and the
// expansion of one state is a pure function of that state, the explored
// tree, the found repairs and the returned (minimal, sorted) repair set
// are byte-identical at every parallelism level.
package repair

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/symtab"
	"repro/internal/term"
)

// Options configures a repair search.
type Options struct {
	// Fixed lists the predicates that may not be inserted into or
	// deleted from (other peers' relations per Definition 4).
	Fixed map[string]bool
	// MaxDelta bounds the number of insert/delete actions along a
	// branch; 0 means a default derived from the instance size. The
	// search returns ErrBound if the bound prunes any branch, since the
	// result may then be incomplete.
	MaxDelta int
	// MaxRepairs stops the search after this many consistent instances
	// have been found (before minimality filtering); 0 means unlimited.
	MaxRepairs int
	// Parallelism bounds the worker pool used by the repair search's
	// wave expansion and by the parallel helpers built on the repair
	// engine (IntersectAnswers and the engines in internal/core). 0
	// means GOMAXPROCS; 1 forces sequential execution. The search
	// output is byte-identical at every level: pruning and result
	// merging happen on the coordinating goroutine in canonical order,
	// parallelism only spreads the per-state expansion work.
	Parallelism int
	// NoLocalize disables the conflict-localized engine (localize.go):
	// the search then always runs as one global wave search, the seed
	// behaviour. Localization is an optimization, applied only when it
	// is provably exact, so the two settings return byte-identical
	// results; the flag exists for A/B measurement and the equivalence
	// tests.
	NoLocalize bool
	// Stats, when non-nil, accumulates search counters (top-level
	// searches, localized engagements, conflict components) across
	// calls; see Stats. It never changes what is computed.
	Stats *Stats
}

// ErrBound reports that the search hit Options.MaxDelta and the set of
// repairs may be incomplete (e.g. cyclic DEC cascades).
var ErrBound = fmt.Errorf("repair: delta bound exceeded; repair set may be incomplete")

type searcher struct {
	orig *relation.Instance
	deps []*constraint.Dependency
	opt  Options
	// facts interns fact keys, so deltas are bitsets over dense fact
	// ids — xor/subset/popcount are word operations — and the visited
	// set is keyed by the packed delta bitset (which, given orig,
	// identifies the candidate instance) instead of the full instance
	// rendering. The table is concurrent, so expansion workers intern
	// action facts directly.
	facts      *symtab.Table
	front      *frontier
	found      []*relation.Instance
	foundDelta []bitset.Set
	hitBound   bool
	// scratch pools the per-expansion working buffers (action toggles,
	// touched-predicate lists, match trails), so steady-state wave
	// expansion stops churning the allocator.
	scratch sync.Pool
	// maxDeltaSeen is the largest delta size of any state the search
	// generated (admitted or not). The conflict-localized engine sums it
	// across components to prove the global engine could not have hit
	// Options.MaxDelta (see localize.go).
	maxDeltaSeen int

	// Component-search mode (nil on the global path): depIdx drives
	// incremental violation checking — after an action only the
	// dependencies whose predicates intersect the touched facts are
	// re-checked, against the violation lists carried on the node —
	// and skip hides the frozen root violations of the other conflict
	// components: per dependency, a Key in skip but not in mine (the
	// component's own root violations). Component searches share one
	// skip table holding every root violation (rootKeys).
	depIdx     *constraint.DepIndex
	skip, mine []map[string]bool
	rootVios   [][]constraint.Violation
}

// rootKeys renders the Key of each root violation once and indexes the
// keys per dependency: the skip table every component search shares.
func rootKeys(vios []constraint.Violation, depOf map[*constraint.Dependency]int, ndeps int) ([]string, []map[string]bool) {
	keys := make([]string, len(vios))
	skip := make([]map[string]bool, ndeps)
	for vi, v := range vios {
		di := depOf[v.Dep]
		if skip[di] == nil {
			skip[di] = map[string]bool{}
		}
		keys[vi] = v.Key()
		skip[di][keys[vi]] = true
	}
	return keys, skip
}

// own sets a component search up: it starts from the component's root
// violations, and the shared skip table hides all the others.
func (s *searcher) own(comp []int, vios []constraint.Violation, keys []string, depOf map[*constraint.Dependency]int, skip []map[string]bool) {
	s.skip = skip
	s.mine = make([]map[string]bool, len(s.deps))
	s.rootVios = make([][]constraint.Violation, len(s.deps))
	for _, vi := range comp {
		di := depOf[vios[vi].Dep]
		if s.mine[di] == nil {
			s.mine[di] = map[string]bool{}
		}
		s.mine[di][keys[vi]] = true
		s.rootVios[di] = append(s.rootVios[di], vios[vi])
	}
}

// hidden returns dependency i's test for the frozen root violations of
// other components, or nil when there are none to hide.
func (s *searcher) hidden(i int) func(constraint.Violation) bool {
	if len(s.skip[i]) == 0 {
		return nil
	}
	skip := s.skip[i]
	var mine map[string]bool
	if s.mine != nil {
		mine = s.mine[i]
	}
	if len(mine) == len(skip) {
		return nil // every root violation of the dependency is ours
	}
	return func(v constraint.Violation) bool {
		k := v.Key()
		return skip[k] && !mine[k]
	}
}

// node is one state of the search, identified by its fact-id delta
// bitset against the original instance (cur = orig Δ delta; deltaN
// caches the popcount). The instance itself is materialized lazily at
// expansion time from the parent's instance plus the action, so states
// rejected by the frontier never pay for a clone.
type node struct {
	delta  bitset.Set
	deltaN int
	parent *relation.Instance
	act    action
	root   bool
	// vios is the parent state's per-dependency violation lists
	// (component-search mode only, indexed like searcher.deps). The
	// expansion derives the node's own lists from them by re-checking
	// just the dependencies the action's predicates touch; unchanged
	// lists are shared, never copied.
	vios [][]constraint.Violation
}

// expansion is the outcome of expanding one admitted node.
type expansion struct {
	inst       *relation.Instance
	consistent bool
	atBound    bool
	children   []node
}

// waveChunk is the number of pending states one wave takes. It is a
// fixed constant — independent of Options.Parallelism — so the
// exploration order, and with it every pruning decision, is identical
// at every parallelism level. Chunks are taken from the tail of the
// pending stack, keeping the exploration depth-first-flavored (small
// consistent deltas are found early, which is what makes the
// subsumption pruning effective).
const waveChunk = 64

// Repairs returns the ≤r-minimal repairs of inst w.r.t. deps. The
// result is deterministic (sorted by canonical instance key) and
// byte-identical at every Options.Parallelism level. If inst is
// already consistent, it is its own unique repair.
func Repairs(inst *relation.Instance, deps []*constraint.Dependency, opt Options) ([]*relation.Instance, error) {
	if err := validate(deps); err != nil {
		return nil, err
	}
	if opt.MaxDelta == 0 {
		opt.MaxDelta = inst.Size() + 64
	}
	if cf, ok := tryLocalize(inst, deps, opt); ok {
		opt.Stats.record(len(cf.comps))
		return cf.materialize(true), nil
	}
	opt.Stats.record(-1)
	return globalRepairs(inst, deps, opt)
}

// globalRepairs is the single global wave search (the seed semantics)
// with the canonical sorted output order; the conflict-localized engine
// falls back to it whenever localization cannot be proven exact.
func globalRepairs(inst *relation.Instance, deps []*constraint.Dependency, opt Options) ([]*relation.Instance, error) {
	min, err := searchRepairs(inst, deps, opt)
	return SortDistinct(min, opt.Parallelism), err
}

// searchRepairs runs the global wave search and returns the minimal
// repairs in discovery order, without the canonical sort. Answering
// paths use it directly: intersecting answers over the repair set is
// order-independent, and rendering the canonical key of every repair is
// the dominant cost at large-universe scale.
func searchRepairs(inst *relation.Instance, deps []*constraint.Dependency, opt Options) ([]*relation.Instance, error) {
	s := &searcher{orig: inst, deps: deps, opt: opt, facts: symtab.New(), front: newFrontier()}
	if err := s.run(); err != nil {
		return nil, err
	}
	min, _ := minimalByDelta(s.found, s.foundDelta)
	if s.hitBound {
		return min, ErrBound
	}
	return min, nil
}

// SortDistinct returns the instances in canonical key order
// (Instance.Key) with duplicate keys dropped, rendering each key exactly
// once: Instance.Key walks the whole instance, so a comparator calling
// it directly would pay that walk O(n log n) times — the dominant cost
// of returning thousands of composed repairs. The renders fan out over
// up to parallelism workers; the sort itself is sequential and
// deterministic. Repairs returns its repairs in this order already.
func SortDistinct(insts []*relation.Instance, parallelism int) []*relation.Instance {
	if len(insts) < 2 {
		return insts
	}
	keys := make([]string, len(insts))
	parallel.Run(len(insts), parallel.Workers(parallelism), func(i int) {
		keys[i] = insts[i].Key()
	})
	order := make([]int, len(insts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	out := make([]*relation.Instance, 0, len(insts))
	for i, j := range order {
		if i == 0 || keys[j] != keys[order[i-1]] {
			out = append(out, insts[j])
		}
	}
	return out
}

// run is the wave loop. Admission (frontier pruning) and merging run on
// the calling goroutine in canonical order; only the expansion of the
// admitted states of one wave fans out.
func (s *searcher) run() error {
	pending := []node{{root: true, vios: s.rootVios}}
	var admitted []node
	workers := parallel.Workers(s.opt.Parallelism)
	for len(pending) > 0 {
		if s.opt.MaxRepairs > 0 && len(s.found) >= s.opt.MaxRepairs {
			return nil
		}
		k := waveChunk
		if k > len(pending) {
			k = len(pending)
		}
		wave := pending[len(pending)-k:]
		pending = pending[:len(pending)-k]
		admitted = admitted[:0]
		for _, nd := range wave {
			if s.front.admit(nd.delta, nd.deltaN) {
				admitted = append(admitted, nd)
			}
		}
		if len(admitted) == 0 {
			continue
		}
		evals, err := parallel.MapErr(len(admitted), workers, func(i int) (expansion, error) {
			return s.expand(admitted[i])
		})
		if err != nil {
			return err
		}
		for i, ev := range evals {
			nd := admitted[i]
			switch {
			case ev.consistent:
				s.found = append(s.found, ev.inst)
				s.foundDelta = append(s.foundDelta, nd.delta)
				s.front.recordFound(nd.delta, nd.deltaN)
				if s.opt.MaxRepairs > 0 && len(s.found) >= s.opt.MaxRepairs {
					return nil
				}
			case ev.atBound:
				s.hitBound = true
			default:
				for _, c := range ev.children {
					if c.deltaN > s.maxDeltaSeen {
						s.maxDeltaSeen = c.deltaN
					}
				}
				pending = append(pending, ev.children...)
			}
		}
	}
	return nil
}

// expandScratch holds one expansion worker's reusable buffers. The
// searcher pools them (sync.Pool) so steady-state expansion allocates
// nodes and results, not working memory.
type expandScratch struct {
	toggles []symtab.Sym
	preds   []string
}

func (s *searcher) getScratch() *expandScratch {
	if sc, ok := s.scratch.Get().(*expandScratch); ok {
		return sc
	}
	return &expandScratch{}
}

// expand materializes a node's instance, checks it for violations and
// enumerates its children. It is a pure function of the node (the
// shared original instance and symbol table are only read or appended
// to concurrently-safely), so any number of expansions may run in
// parallel.
func (s *searcher) expand(nd node) (expansion, error) {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	var cur *relation.Instance
	var delta constraint.Delta
	if nd.root {
		cur = s.orig.Clone()
	} else {
		cur = nd.parent.Clone()
		delta = nd.act.apply(cur)
	}
	var v *constraint.Violation
	var vios [][]constraint.Violation
	var err error
	if s.depIdx != nil {
		// Component mode: derive the node's violation lists from the
		// parent's and the action's delta, then pick the first remaining
		// violation (dependency order, match order — the order
		// FirstViolation would use).
		vios = nd.vios
		if !nd.root {
			vios, err = s.recheck(nd.vios, delta, cur, sc)
			if err != nil {
				return expansion{}, err
			}
		}
		for i := range vios {
			if len(vios[i]) > 0 {
				v = &vios[i][0]
				break
			}
		}
	} else {
		v, err = constraint.FirstViolation(cur, s.deps)
		if err != nil {
			return expansion{}, err
		}
	}
	if v == nil {
		return expansion{inst: cur, consistent: true}, nil
	}
	if nd.deltaN >= s.opt.MaxDelta {
		return expansion{atBound: true}, nil
	}
	acts, err := s.actions(cur, v)
	if err != nil {
		return expansion{}, err
	}
	children := make([]node, 0, len(acts))
	for _, a := range acts {
		d, n := s.childDelta(nd.delta, a, sc)
		children = append(children, node{delta: d, deltaN: n, parent: cur, act: a, vios: vios})
	}
	return expansion{children: children}, nil
}

// recheck derives a state's per-dependency violation lists from its
// parent's and the net delta of the action that led to it: only the
// dependencies indexed under the delta's predicates can change, and
// each of those is brought up to date by the delta kernel
// (constraint.ViolationsDelta), which re-checks just the matches the
// delta touches and leaves out the frozen violations of the other
// conflict components. Every other list is shared with the parent.
func (s *searcher) recheck(parent [][]constraint.Violation, d constraint.Delta, cur *relation.Instance, sc *expandScratch) ([][]constraint.Violation, error) {
	sc.preds = d.AppendPreds(sc.preds[:0])
	out := make([][]constraint.Violation, len(parent))
	copy(out, parent)
	for _, i := range s.depIdx.Affected(sc.preds) {
		vs, err := s.deps[i].ViolationsDelta(parent[i], cur, d, s.hidden(i))
		if err != nil {
			return nil, err
		}
		out[i] = vs
	}
	return out, nil
}

// childDelta derives a child state's fact-id delta bitset (and its
// popcount) from its parent's: every fact the action touches toggles
// its membership in the symmetric difference against the original
// instance (deletes remove earlier inserts or record new deletions,
// and vice versa), so no SymDiff over the full instance is needed per
// state.
func (s *searcher) childDelta(parent bitset.Set, a action, sc *expandScratch) (bitset.Set, int) {
	toggles := sc.toggles[:0]
	for _, f := range a.deletes {
		toggles = append(toggles, s.facts.Intern(f.IDKey()))
	}
	for _, f := range a.inserts {
		toggles = append(toggles, s.facts.Intern(f.IDKey()))
	}
	sort.Slice(toggles, func(i, j int) bool { return toggles[i] < toggles[j] })
	// An action may name the same fact twice (two head atoms grounding
	// to one missing fact); applying it still changes membership once,
	// so duplicates collapse to a single toggle (FlipAll would cancel
	// the pair).
	uniq := toggles[:0]
	for i, id := range toggles {
		if i == 0 || id != toggles[i-1] {
			uniq = append(uniq, id)
		}
	}
	sc.toggles = toggles
	d := bitset.FlipAll(parent, uniq)
	return d, d.Count()
}

// action is a set of simultaneous tuple changes fixing one violation.
type action struct {
	deletes []relation.Fact
	inserts []relation.Fact
}

// apply performs the action on the instance and returns the net delta
// it made: deleting an absent fact or inserting a present one changes
// nothing, and a fact named twice changes once.
func (a action) apply(in *relation.Instance) constraint.Delta {
	var changes []relation.Change
	for _, f := range a.deletes {
		if in.Delete(f.Rel, f.Tuple) {
			changes = append(changes, relation.Change{Fact: f})
		}
	}
	for _, f := range a.inserts {
		if in.Insert(f.Rel, f.Tuple) {
			changes = append(changes, relation.Change{Fact: f, Insert: true})
		}
	}
	return constraint.NetDelta(changes)
}

// actions enumerates the ways of fixing a violation: deleting any one
// mutable body atom, or inserting the missing head atoms under some
// witness assignment.
func (s *searcher) actions(cur *relation.Instance, v *constraint.Violation) ([]action, error) {
	var out []action
	d := v.Dep
	// Deletions of mutable body atoms.
	for _, ba := range d.Body {
		g := v.Subst.Apply(ba)
		if s.opt.Fixed[g.Pred] {
			continue
		}
		if !cur.HasAtom(g) {
			continue // duplicate body atom already handled
		}
		out = append(out, action{deletes: []relation.Fact{atomFact(g)}})
	}
	// Insertions (TGDs only). Witnesses for existential variables come
	// from matching head atoms on fixed predicates; leftover variables
	// range over the active domain.
	if d.IsTGD() {
		wits, err := s.witnesses(cur, d, v.Subst)
		if err != nil {
			return nil, err
		}
		for _, w := range wits {
			var ins []relation.Fact
			ok := true
			for _, ha := range d.Head {
				g := w.Apply(ha)
				if !g.IsGround() {
					ok = false
					break
				}
				if cur.HasAtom(g) {
					continue
				}
				if s.opt.Fixed[g.Pred] {
					ok = false // cannot create the witness on a fixed relation
					break
				}
				ins = append(ins, atomFact(g))
			}
			if ok && len(ins) > 0 {
				out = append(out, action{inserts: ins})
			}
		}
	}
	return out, nil
}

// witnesses enumerates assignments extending the body match over the
// dependency's existential variables such that all head equalities
// hold. Head atoms over fixed predicates must be matched against
// existing tuples (they cannot be created), binding their variables;
// remaining unbound existential variables enumerate the active domain.
// Backtracking runs on one substitution with a binding trail
// (term.MatchTrail/UnbindTrail) — only accepted witnesses are cloned —
// and the active domain is only rendered for dependencies that still
// have unbound existential variables after the fixed-atom join.
func (s *searcher) witnesses(cur *relation.Instance, d *constraint.Dependency, base term.Subst) ([]term.Subst, error) {
	// Order head atoms: fixed predicates first (they constrain).
	var fixedAtoms []term.Atom
	for _, ha := range d.Head {
		if s.opt.Fixed[ha.Pred] {
			fixedAtoms = append(fixedAtoms, ha)
		}
	}
	var dom []string
	domReady := false
	sub := base.Clone()
	var trail []string
	var argsBuf []term.Term
	var out []term.Subst
	var matchFixed func(i int) error
	matchFixed = func(i int) error {
		if i == len(fixedAtoms) {
			// Enumerate any still-unbound existential variables.
			var unbound []string
			for _, v := range d.ExVars {
				if sub.Lookup(term.V(v)).IsVar {
					unbound = append(unbound, v)
				}
			}
			if len(unbound) > 0 && !domReady {
				dom, domReady = cur.ActiveDomain(), true
			}
			var enum func(j int) error
			enum = func(j int) error {
				if j == len(unbound) {
					for _, c := range d.HeadEq {
						ok, err := c.Eval(sub)
						if err != nil {
							return err
						}
						if !ok {
							return nil
						}
					}
					out = append(out, sub.Clone())
					return nil
				}
				for _, c := range dom {
					sub[unbound[j]] = term.C(c)
					if err := enum(j + 1); err != nil {
						return err
					}
				}
				delete(sub, unbound[j])
				return nil
			}
			return enum(0)
		}
		// Indexed join: candidates for the fixed head atom come from the
		// per-column indexes instead of a full relation scan.
		pat := sub.Apply(fixedAtoms[i])
		fact := term.Atom{Pred: pat.Pred}
		for _, tup := range cur.MatchingTuples(pat) {
			mark := len(trail)
			argsBuf = term.ConstArgs(argsBuf[:0], tup)
			fact.Args = argsBuf
			if term.MatchTrail(pat, fact, sub, &trail) {
				if err := matchFixed(i + 1); err != nil {
					return err
				}
			}
			trail = term.UnbindTrail(sub, trail, mark)
		}
		return nil
	}
	if err := matchFixed(0); err != nil {
		return nil, err
	}
	return out, nil
}

// minimalByDelta filters instances whose delta (vs the original) is
// ⊆-minimal, returning the kept instances and the indices they were
// kept from. Deltas are fact-id bitsets: candidates are examined in
// ascending delta size (popcount), so each instance is only compared
// against the strictly smaller deltas before it and each comparison is
// a word-wise subset test instead of a string-keyed map probe — the
// seed's quadratic map-probing collapse point for large candidate sets.
func minimalByDelta(insts []*relation.Instance, deltas []bitset.Set) ([]*relation.Instance, []int) {
	order := make([]int, len(insts))
	counts := make([]int, len(insts))
	for i := range order {
		order[i] = i
		counts[i] = deltas[i].Count()
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] < counts[order[b]] })
	var out []*relation.Instance
	var kept []int
	seen := make(map[string]bool)
	var keyBuf []byte
	for oi, i := range order {
		minimal := true
		for _, j := range order[:oi] {
			if counts[j] < counts[i] && deltas[j].SubsetOf(deltas[i]) {
				minimal = false
				break
			}
		}
		if minimal {
			keyBuf = deltas[i].AppendKey(keyBuf[:0])
			k := string(keyBuf)
			if !seen[k] {
				seen[k] = true
				out = append(out, insts[i])
				kept = append(kept, i)
			}
		}
	}
	return out, kept
}

func atomFact(a term.Atom) relation.Fact {
	t := make(relation.Tuple, len(a.Args))
	for i, arg := range a.Args {
		t[i] = arg.Name
	}
	return relation.Fact{Rel: a.Pred, Tuple: t}
}
