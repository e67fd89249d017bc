// Incremental re-answering under write traffic: the delta-driven
// counterpart of the conflict-localized engine (localize.go). An
// IncrState keeps, across a series of fact-level deltas to one evolving
// instance, the per-dependency violation lists, the full-TGD head-fact
// support counts and a cache of solved conflict components. On a delta
// it brings the lists and counts of the dependencies whose predicates
// the delta touches (constraint.DepIndex.Affected) up to date through
// the delta kernel (constraint.ViolationsDelta, BodyMatchesDelta), which
// re-checks only the matches the changed facts touch. It then rebuilds
// the component partition from the refreshed violation lists, re-runs
// the wave search only for the components the delta could have
// influenced, and re-answers the query from the patched component
// repairs — untouched components' repair deltas are reused verbatim.
//
// Reusing a cached component is sound when the delta is disjoint from
// the component's read set: every predicate whose content the
// component's search could have consulted. The search mutates only the
// component's touchable facts and its cascade closure (violationInfos);
// re-checking any dependency intersecting those mutable predicates
// reads all of that dependency's predicates (fixed ones included). With
// the read set untouched, a fresh search would see the identical
// violation lists at every state and generate the identical repair
// deltas, and the deltas still apply: their facts live on read-set
// predicates, so their membership status is unchanged too.
//
// The exactness discipline mirrors localize.go: bounded searches
// (hitBound), deltas that could sum past Options.MaxDelta, queries
// whose predicates span two components, and non-domain-free queries
// all report ok=false, and the caller falls back to the byte-identical
// full recompute.
package repair

import (
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/symtab"
	"repro/internal/term"
)

// IncrState is the persistent incremental-answering state for one
// (dependency set, fixed set) repair problem over one evolving
// instance. It is not safe for concurrent use; callers serialize
// Answers per state (peernet holds one state per cached query series).
type IncrState struct {
	deps   []*constraint.Dependency
	fixed  map[string]bool
	depIdx *constraint.DepIndex
	// facts interns fact keys persistently, so cached component deltas
	// from earlier calls stay comparable with freshly searched ones.
	facts *symtab.Table

	// Structural interaction maps (instance-independent).
	exHeadDeps map[string][]int
	bodyPreds  map[string]bool
	fullTGDs   []int

	// Per-dependency dynamic state, derived from the delta for the
	// delta's affected dependencies: the violation lists, and each full
	// TGD's head-fact support counts (headSupport).
	seeded  bool
	vios    [][]constraint.Violation
	support []map[string]int

	// cache maps a component's sorted violation-key join to its solved
	// repairs; entries are purged as soon as a delta touches their read
	// set. Only exhaustively searched (non-hitBound) components are
	// cached: their repair sets are valid under any MaxDelta.
	cache map[string]*incrComp
}

// incrComp is one solved conflict component.
type incrComp struct {
	deltas     []bitset.Set
	deltaPreds map[string]bool
	readPreds  map[string]bool
	maxDelta   int
}

// NewIncrState prepares incremental answering for a dependency set and
// fixed-predicate set. ok is false when the problem shape is not
// incrementalizable under the localization discipline (duplicate
// dependency entries, a domain-dependent dependency, or an invalid
// dependency — the full engine then reports errors canonically).
func NewIncrState(deps []*constraint.Dependency, fixed map[string]bool) (*IncrState, bool) {
	seen := map[*constraint.Dependency]bool{}
	for _, d := range deps {
		if err := d.Validate(); err != nil {
			return nil, false
		}
		if seen[d] {
			return nil, false
		}
		seen[d] = true
		if domainDependentDep(d, fixed) {
			return nil, false
		}
	}
	st := &IncrState{
		deps:       deps,
		fixed:      fixed,
		depIdx:     constraint.NewDepIndex(deps),
		facts:      symtab.New(),
		exHeadDeps: map[string][]int{},
		bodyPreds:  map[string]bool{},
		cache:      map[string]*incrComp{},
	}
	for i, d := range deps {
		for _, a := range d.Body {
			st.bodyPreds[a.Pred] = true
		}
		if !d.IsTGD() {
			continue
		}
		if len(d.ExVars) > 0 {
			for _, h := range d.Head {
				st.exHeadDeps[h.Pred] = append(st.exHeadDeps[h.Pred], i)
			}
			continue
		}
		st.fullTGDs = append(st.fullTGDs, i)
	}
	return st, true
}

// reset drops all dynamic state, forcing the next Answers call to
// rebuild from scratch (error recovery).
func (st *IncrState) reset() {
	st.seeded = false
	st.vios = nil
	st.support = nil
	st.cache = map[string]*incrComp{}
}

// Answers computes the consistent answers of q over the repairs of inst
// w.r.t. the state's dependencies, reusing component repairs cached
// from earlier calls. changes lists the membership changes made to inst
// since the previous call, in order (ignored on the first call); every
// change to the instance must be reported through exactly one Answers
// call. noRepairs reports the no-repairs outcome (the caller maps it to
// its no-solutions convention). ok is false when an exactness gate fails
// and the caller must fall back to the full recompute; the state stays
// consistent with inst either way.
func (st *IncrState) Answers(inst *relation.Instance, changes []relation.Change, q foquery.Formula, vars []string, opt Options) (ans []relation.Tuple, noRepairs bool, ok bool, err error) {
	if opt.NoLocalize || opt.MaxRepairs > 0 || !domainFreeQuery(q) {
		return nil, false, false, nil
	}
	maxDelta := opt.MaxDelta
	if maxDelta == 0 {
		maxDelta = inst.Size() + 64
	}

	// Refresh the per-dependency state: from scratch on the first call,
	// from the net delta for the affected dependencies afterwards.
	delta := constraint.NetDelta(changes)
	changed := delta.AppendPreds(nil)
	if err := st.refresh(inst, delta, changed); err != nil {
		st.reset()
		return nil, false, false, nil
	}

	// Purge every cached component the delta could have influenced;
	// the survivors' reuse is sound (see the package comment).
	for key, c := range st.cache {
		if mapIntersectsSlice(c.readPreds, changed) {
			delete(st.cache, key)
		}
	}

	var vios []constraint.Violation
	for _, vs := range st.vios {
		vios = append(vios, vs...)
	}
	if len(vios) == 0 {
		// The instance is consistent: it is its own unique repair.
		ans, err = IntersectAnswersOpt([]*relation.Instance{inst}, q, vars, opt)
		return ans, false, true, err
	}

	ctx := &depInteraction{
		witnessDeps: map[string][]int{},
		exHeadDeps:  st.exHeadDeps,
		bodyPreds:   st.bodyPreds,
	}
	for _, i := range st.fullTGDs {
		for g := range st.support[i] {
			ctx.witnessDeps[g] = append(ctx.witnessDeps[g], i)
		}
	}
	infos := violationInfosWith(inst, st.deps, vios, st.fixed, ctx)
	comps := buildComponentsFrom(vios, infos)
	depOf := map[*constraint.Dependency]int{}
	for i, d := range st.deps {
		depOf[d] = i
	}
	vioKeys, skip := rootKeys(vios, depOf, len(st.deps))

	keys := make([]string, len(comps))
	resolved := make([]*incrComp, len(comps))
	var searchIdx []int
	for ci, g := range comps {
		ks := make([]string, len(g))
		for i, vi := range g {
			ks[i] = vioKeys[vi]
		}
		sort.Strings(ks)
		keys[ci] = strings.Join(ks, "\x1d")
		if c, hit := st.cache[keys[ci]]; hit {
			resolved[ci] = c
		} else {
			searchIdx = append(searchIdx, ci)
		}
	}

	// Search the unresolved components, mirroring tryLocalize: one
	// sequential wave search per component with the other components'
	// root violations frozen, fanned out across the worker pool.
	searchers, serr := parallel.MapErr(len(searchIdx), parallel.Workers(opt.Parallelism), func(k int) (*searcher, error) {
		innerOpt := opt
		innerOpt.Parallelism = 1
		innerOpt.Fixed = st.fixed
		innerOpt.MaxDelta = maxDelta
		s := &searcher{orig: inst, deps: st.deps, opt: innerOpt, facts: st.facts, front: newFrontier(), depIdx: st.depIdx}
		s.front.noSubsume = true
		s.own(comps[searchIdx[k]], vios, vioKeys, depOf, skip)
		return s, s.run()
	})
	if serr != nil {
		st.reset()
		return nil, false, false, nil
	}
	hitBound := false
	for k, s := range searchers {
		ci := searchIdx[k]
		if s.hitBound {
			hitBound = true
			continue
		}
		_, kept := minimalByDelta(s.found, s.foundDelta)
		c := &incrComp{
			deltas:     make([]bitset.Set, len(kept)),
			deltaPreds: map[string]bool{},
			readPreds:  st.compReadPreds(comps[ci], vios, infos),
			maxDelta:   s.maxDeltaSeen,
		}
		for i, ki := range kept {
			c.deltas[i] = s.foundDelta[ki]
			s.foundDelta[ki].ForEach(func(id uint32) {
				c.deltaPreds[relation.ParseFactIDKey(st.facts.Name(symtab.Sym(id))).Rel] = true
			})
		}
		st.cache[keys[ci]] = c
		resolved[ci] = c
	}
	if hitBound {
		return nil, false, false, nil
	}

	// Bound exactness across all components, cached and fresh — the
	// same sum argument as localize.go, re-evaluated against the
	// current MaxDelta.
	sumMax := 0
	for _, c := range resolved {
		sumMax += c.maxDelta
	}
	if sumMax >= maxDelta {
		return nil, false, false, nil
	}

	for _, c := range resolved {
		if len(c.deltas) == 0 {
			return nil, true, true, nil
		}
	}

	var touched *incrComp
	for _, c := range resolved {
		for _, p := range foquery.Preds(q) {
			if c.deltaPreds[p] {
				if touched != nil && touched != c {
					return nil, false, false, nil // query spans two components
				}
				touched = c
			}
		}
	}
	if touched == nil {
		ans, err = IntersectAnswersOpt([]*relation.Instance{inst}, q, vars, opt)
		return ans, false, true, err
	}
	insts := make([]*relation.Instance, len(touched.deltas))
	for i, d := range touched.deltas {
		out := inst.Clone()
		st.applyDelta(out, d)
		insts[i] = out
	}
	ans, err = IntersectAnswersOpt(insts, q, vars, opt)
	return ans, false, true, err
}

// refresh brings the violation lists and support counts up to date with
// inst: all of them on the first call, afterwards those of the
// dependencies mentioning a changed predicate, from the delta.
func (st *IncrState) refresh(inst *relation.Instance, delta constraint.Delta, changed []string) error {
	if !st.seeded {
		st.vios = make([][]constraint.Violation, len(st.deps))
		st.support = make([]map[string]int, len(st.deps))
		for i, d := range st.deps {
			vs, err := d.Violations(inst)
			if err != nil {
				return err
			}
			st.vios[i] = vs
			if d.IsFullTGD() {
				if st.support[i], err = headSupport(inst, d); err != nil {
					return err
				}
			}
		}
		st.seeded = true
		return nil
	}
	for _, i := range st.depIdx.Affected(changed) {
		d := st.deps[i]
		vs, err := d.ViolationsDelta(st.vios[i], inst, delta, nil)
		if err != nil {
			return err
		}
		st.vios[i] = vs
		if d.IsFullTGD() {
			if err := d.BodyMatchesDelta(inst, delta, func(s term.Subst, created bool) error {
				n := 1
				if !created {
					n = -1
				}
				countHeads(st.support[i], d, s, n)
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// compReadPreds computes a component's read set: the predicates a
// fresh search of the component could consult. The search mutates only
// the component's touchable facts and cascade closure (both already
// closed under cascading, violationInfos); any dependency intersecting
// those mutable predicates is re-checked during the search, reading
// all of its predicates, and the component's own root dependencies are
// read unconditionally.
func (st *IncrState) compReadPreds(comp []int, vios []constraint.Violation, infos []vioInfo) map[string]bool {
	read := map[string]bool{}
	mut := map[string]bool{}
	for _, vi := range comp {
		for p := range vios[vi].Dep.Preds() {
			read[p] = true
		}
		for p := range infos[vi].factPreds {
			mut[p] = true
		}
		for p := range infos[vi].predSet {
			mut[p] = true
		}
	}
	for _, d := range st.deps {
		preds := d.Preds()
		if intersects(preds, mut) {
			for p := range preds {
				read[p] = true
			}
		}
	}
	for p := range mut {
		read[p] = true
	}
	return read
}

// applyDelta toggles every fact of a repair delta on the instance
// (symmetric-difference application, as localPlan.applyDelta).
func (st *IncrState) applyDelta(in *relation.Instance, delta bitset.Set) {
	delta.ForEach(func(id uint32) {
		f := relation.ParseFactIDKey(st.facts.Name(symtab.Sym(id)))
		if in.Has(f.Rel, f.Tuple) {
			in.Delete(f.Rel, f.Tuple)
		} else {
			in.Insert(f.Rel, f.Tuple)
		}
	})
}

// CachedComponents reports the number of solved components currently
// cached (observability for tests and the serving plane).
func (st *IncrState) CachedComponents() int { return len(st.cache) }

// DomainFreeQuery reports whether the query is in the domain-free
// fragment (atoms, conjunction, disjunction) that Answers can serve;
// callers can test it before building incremental state, since any
// other shape makes every Answers call fall back.
func DomainFreeQuery(q foquery.Formula) bool { return domainFreeQuery(q) }

func mapIntersectsSlice(m map[string]bool, preds []string) bool {
	for _, p := range preds {
		if m[p] {
			return true
		}
	}
	return false
}
