// Incremental re-answering under write traffic: the incremental driver
// of the conflict-component engine (localize.go). An IncrState keeps,
// across a series of fact-level deltas to one evolving instance, the
// per-dependency violation lists, the full-TGD head-fact support
// counts and a cache of solved conflict components. On a delta
// it brings the lists and counts of the dependencies whose predicates
// the delta touches (constraint.DepIndex.Affected) up to date through
// the delta kernel (constraint.ViolationsDelta, BodyMatchesDelta), which
// re-checks only the matches the changed facts touch. It then rebuilds
// the component partition from the refreshed violation lists, re-runs
// the wave search only for the components the delta could have
// influenced, and re-answers the query through the engine's answer step
// — untouched components' repair deltas are reused verbatim.
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
// The exactness gates are the engine's: bounded searches (hitBound),
// deltas that could sum past Options.MaxDelta, queries whose predicates
// span two components, and non-domain-free queries all report ok=false,
// and the caller falls back to the byte-identical full recompute.
package repair

import (
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/foquery"
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
	cache map[string]cachedComp
}

// cachedComp is a solved component with its read set (readPreds).
type cachedComp struct {
	*component
	read map[string]bool
}

// NewIncrState prepares incremental answering for a dependency set and
// fixed-predicate set. ok is false when the problem shape is not
// incrementalizable under the localization discipline (an invalid
// dependency — the full engine then reports errors canonically — or
// one the engine cannot split, see localizable).
func NewIncrState(deps []*constraint.Dependency, fixed map[string]bool) (*IncrState, bool) {
	if validate(deps) != nil || !localizable(deps, fixed) {
		return nil, false
	}
	return &IncrState{
		deps:   deps,
		fixed:  fixed,
		depIdx: constraint.NewDepIndex(deps),
		facts:  symtab.New(),
		cache:  map[string]cachedComp{},
	}, true
}

// reset drops all dynamic state, forcing the next Answers call to
// rebuild from scratch (error recovery).
func (st *IncrState) reset() {
	st.seeded = false
	st.vios = nil
	st.support = nil
	st.cache = map[string]cachedComp{}
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
	// Refresh the per-dependency state: from scratch on the first call,
	// from the net delta for the affected dependencies afterwards. A
	// call the gates below refuse still takes its changes.
	delta := constraint.NetDelta(changes)
	changed := delta.AppendPreds(nil)
	if err := st.refresh(inst, delta, changed); err != nil {
		st.reset()
		return nil, false, false, nil
	}

	// Purge every cached component the delta could have influenced;
	// the survivors' reuse is sound (see the package comment).
	for key, c := range st.cache {
		if mapIntersectsSlice(c.read, changed) {
			delete(st.cache, key)
		}
	}
	if opt.NoLocalize || opt.MaxRepairs > 0 || !DomainFreeQuery(q) {
		return nil, false, false, nil
	}

	var vios []constraint.Violation
	for _, vs := range st.vios {
		vios = append(vios, vs...)
	}
	opt.Fixed = st.fixed
	if opt.MaxDelta == 0 {
		opt.MaxDelta = inst.Size() + 64
	}
	cf := newConflicts(inst, st.deps, st.depIdx, st.facts, opt, vios, st.support)
	cf.index()
	keys := make([]string, len(cf.groups))
	for ci, g := range cf.groups {
		ks := make([]string, len(g))
		for i, vi := range g {
			ks[i] = cf.keys[vi]
		}
		sort.Strings(ks)
		keys[ci] = strings.Join(ks, "\x1d")
		if c, hit := st.cache[keys[ci]]; hit {
			cf.comps[ci] = c.component
		}
	}
	solved, err := cf.solve()
	if err != nil {
		st.reset()
		return nil, false, false, nil
	}
	for ci, c := range cf.comps {
		if _, hit := st.cache[keys[ci]]; c != nil && !hit {
			st.cache[keys[ci]] = cachedComp{c, st.readPreds(cf, ci)}
		}
	}
	if !solved {
		return nil, false, false, nil
	}
	return cf.answer(q, vars)
}

// refresh brings the violation lists and support counts up to date with
// inst: all of them on the first call, afterwards those of the
// dependencies mentioning a changed predicate, from the delta.
func (st *IncrState) refresh(inst *relation.Instance, delta constraint.Delta, changed []string) error {
	if !st.seeded {
		st.vios = make([][]constraint.Violation, len(st.deps))
		for i, d := range st.deps {
			vs, err := d.Violations(inst)
			if err != nil {
				return err
			}
			st.vios[i] = vs
		}
		support, err := headSupports(inst, st.deps)
		if err != nil {
			return err
		}
		st.support = support
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

// readPreds computes component ci's read set: the predicates a fresh
// search of the component could consult. The search mutates only the
// component's touchable facts and cascade closure (both already closed
// under cascading, violationInfos); any dependency intersecting those
// mutable predicates is re-checked during the search, reading all of
// its predicates, and the component's own root dependencies are read
// unconditionally.
func (st *IncrState) readPreds(cf *conflicts, ci int) map[string]bool {
	read := map[string]bool{}
	mut := map[string]bool{}
	for _, vi := range cf.groups[ci] {
		for p := range cf.vios[vi].Dep.Preds() {
			read[p] = true
		}
		for p := range cf.infos[vi].factPreds {
			mut[p] = true
		}
		for p := range cf.infos[vi].predSet {
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

// CachedComponents reports the number of solved components currently
// cached (observability for tests and the serving plane).
func (st *IncrState) CachedComponents() int { return len(st.cache) }

func mapIntersectsSlice(m map[string]bool, preds []string) bool {
	for _, p := range preds {
		if m[p] {
			return true
		}
	}
	return false
}
