// Conflict-localized repair: repairs of an inconsistent instance
// factorize over the connected components of its conflict graph
// [Arenas, Bertossi, Chomicki, PODS 99]. The nodes of the graph are the
// root violations (constraint.AllViolations); two violations interact —
// and land in one component — when the facts their repair actions can
// touch overlap (fact level), or when either can cascade (insert
// witnesses, create new matches, un-witness a TGD) into a predicate the
// other can observe (predicate-level dependency closure, mirroring
// internal/slice). The engine freezes everything outside a component,
// runs the deterministic wave search per component — with incremental
// violation checking: after an action only the dependencies whose
// predicates intersect the touched facts are re-checked — and composes
// the global minimal repairs as the cross-product of the component
// repairs: component deltas are disjoint, so ⊆-minimality factorizes.
// A domain-free query whose relations meet one component's deltas is
// answered over that component's repairs alone (conflicts.answer).
//
// The engine (conflicts) has two drivers. The one-shot driver
// (tryLocalize), behind Repairs and ConsistentAnswers, partitions
// constraint.AllViolations and solves every component. The incremental
// driver (IncrState, incr.go) partitions violation lists it maintains
// from write deltas and searches only the components it has not cached.
//
// Localization is applied only when it is provably exact, so the
// composed output is byte-identical to the global wave search:
//
//   - Options.MaxRepairs truncation depends on the global exploration
//     order, so any truncated search falls back to the global engine;
//   - a dependency that draws repair witnesses from the active domain
//     makes components interact through constants of arbitrary
//     relations (the analogue of slice's domain-dependent degradation),
//     so its presence falls back;
//   - the component searches run without subsumption pruning and track
//     the largest delta they ever generate; if the sizes sum below
//     Options.MaxDelta, no interleaved global branch could have hit the
//     bound either (every global state projects to generated component
//     states with disjoint deltas), so ErrBound is provably absent.
//     Otherwise the engine falls back and lets the global search decide
//     bound reporting canonically.
package repair

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/symtab"
	"repro/internal/term"
)

// maxComposedRepairs caps the size of a composed cross-product; beyond
// it the engine falls back to the global search rather than risking
// integer overflow while counting (the global engine enumerates the
// same repairs, so neither path is fast there).
const maxComposedRepairs = 1 << 24

// component is one solved conflict component: the ⊆-minimal repairs of
// its root violations with every fact outside the component frozen.
// It holds no instance, so the incremental driver can cache it across
// writes that miss its read set (incr.go).
type component struct {
	// deltas are the minimal repair deltas (fact-id bitsets over the
	// engine's fact table); disjoint across components.
	deltas []bitset.Set
	// deltaPreds are the predicates occurring in any delta — the
	// relations on which this component's repairs can disagree.
	deltaPreds map[string]bool
	// maxDelta is the largest delta any state of the component's search
	// generated: the summand of solve's bound proof.
	maxDelta int
}

// conflicts is one run of the conflict-component engine over an
// instance: its root violations, their partition into the components
// of the conflict graph and, once solved, each component's repairs.
// Two drivers build it. The one-shot driver (tryLocalize) starts from
// constraint.AllViolations and solves every component; the incremental
// driver (IncrState.Answers) starts from its delta-maintained violation
// lists and fills in the components it has cached before solving.
type conflicts struct {
	inst   *relation.Instance
	deps   []*constraint.Dependency
	depIdx *constraint.DepIndex
	// facts interns the fact keys of every repair delta.
	facts *symtab.Table
	// opt carries the fixed predicates and a resolved MaxDelta.
	opt   Options
	vios  []constraint.Violation
	infos []vioInfo
	// groups are the components' root violations: ascending index lists
	// ordered by first violation.
	groups [][]int
	// keys are the root violations' rendered keys, skip indexes them per
	// dependency (rootKeys) and depOf maps a dependency to its index;
	// index fills them for solve.
	keys  []string
	skip  []map[string]bool
	depOf map[*constraint.Dependency]int
	// comps[ci] is group ci's solved component (nil until solved), and
	// repaired[ci] its repaired instances if its search ran in this run.
	comps    []*component
	repaired [][]*relation.Instance
}

// vioInfo is the interaction signature of one root violation.
type vioInfo struct {
	// factSet are the keys of the facts the violation's direct repair
	// actions can touch: deletable (mutable) body facts plus, for full
	// TGDs, the determined head insertions.
	factSet map[string]bool
	// factPreds are the predicates of factSet.
	factPreds map[string]bool
	// predSet is the cascade frontier (mutable predicates the repair can
	// reach transitively); nil for violations that cannot cascade.
	predSet map[string]bool
}

// validate checks every dependency (Dependency.Validate).
func validate(deps []*constraint.Dependency) error {
	for _, d := range deps {
		if err := d.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// localizable reports whether the engine can split a repair problem
// over deps: no dependency is listed twice (component searches index
// their state per dependency) and none is domain-dependent.
func localizable(deps []*constraint.Dependency, fixed map[string]bool) bool {
	seen := map[*constraint.Dependency]bool{}
	for _, d := range deps {
		if seen[d] || domainDependentDep(d, fixed) {
			return false
		}
		seen[d] = true
	}
	return true
}

// newConflicts partitions the root violations vios of inst into the
// components of the conflict graph. support holds every full TGD's
// head-fact support over inst (headSupports).
func newConflicts(inst *relation.Instance, deps []*constraint.Dependency, depIdx *constraint.DepIndex, facts *symtab.Table, opt Options, vios []constraint.Violation, support []map[string]int) *conflicts {
	infos := violationInfos(inst, deps, vios, opt.Fixed, newDepInteraction(deps, support))
	groups := buildComponents(vios, infos)
	return &conflicts{
		inst: inst, deps: deps, depIdx: depIdx, facts: facts, opt: opt,
		vios: vios, infos: infos, groups: groups,
		comps:    make([]*component, len(groups)),
		repaired: make([][]*relation.Instance, len(groups)),
	}
}

// index renders every root violation's key once and builds the skip
// table all component searches share.
func (cf *conflicts) index() {
	cf.depOf = make(map[*constraint.Dependency]int, len(cf.deps))
	for i, d := range cf.deps {
		cf.depOf[d] = i
	}
	cf.keys, cf.skip = rootKeys(cf.vios, cf.depOf, len(cf.deps))
}

// solve searches every component not solved yet — one sequential wave
// search per component with the other components' root violations
// frozen, fanned out across the worker pool — and keeps each search's
// ⊆-minimal repairs. ok reports the bound proof over all components:
// it fails when a search hit Options.MaxDelta, or when the largest
// deltas the searches generated sum to it, since an interleaved global
// branch could then have hit the bound. Components whose search
// completed are kept either way. index must have run.
func (cf *conflicts) solve() (ok bool, err error) {
	var todo []int
	for ci, c := range cf.comps {
		if c == nil {
			todo = append(todo, ci)
		}
	}
	searchers, err := parallel.MapErr(len(todo), parallel.Workers(cf.opt.Parallelism), func(k int) (*searcher, error) {
		opt := cf.opt
		opt.Parallelism = 1 // components are the unit of fan-out
		s := &searcher{orig: cf.inst, deps: cf.deps, opt: opt, facts: cf.facts, front: newFrontier(), depIdx: cf.depIdx}
		s.front.noSubsume = true
		s.own(cf.groups[todo[k]], cf.vios, cf.keys, cf.depOf, cf.skip)
		return s, s.run()
	})
	if err != nil {
		return false, err
	}
	ok = true
	for k, s := range searchers {
		if s.hitBound {
			ok = false
			continue
		}
		insts, kept := minimalByDelta(s.found, s.foundDelta)
		c := &component{deltas: make([]bitset.Set, len(kept)), deltaPreds: map[string]bool{}, maxDelta: s.maxDeltaSeen}
		for i, ki := range kept {
			c.deltas[i] = s.foundDelta[ki]
			s.foundDelta[ki].ForEach(func(id uint32) {
				c.deltaPreds[relation.ParseFactIDKey(cf.facts.Name(symtab.Sym(id))).Rel] = true
			})
		}
		cf.comps[todo[k]], cf.repaired[todo[k]] = c, insts
	}
	if !ok {
		return false, nil
	}
	sum := 0
	for _, c := range cf.comps {
		sum += c.maxDelta
	}
	return sum < cf.opt.MaxDelta, nil
}

// answer reads the consistent answers of q from the solved components
// without composing them. q must be domain-free (DomainFreeQuery), so
// its evaluation observes only its own relations: every repair agrees
// with the instance on them, except where one component's deltas touch
// them, and then the answers are those over that component's repairs.
// noRepairs reports that a component has no repair, so neither has the
// instance. ok is false when q's relations meet the deltas of two
// components, whose combinations the caller must then materialize.
func (cf *conflicts) answer(q foquery.Formula, vars []string) (ans []relation.Tuple, noRepairs, ok bool, err error) {
	for _, c := range cf.comps {
		if len(c.deltas) == 0 {
			return nil, true, true, nil
		}
	}
	preds := foquery.Preds(q)
	touched := -1
	for ci, c := range cf.comps {
		for _, p := range preds {
			if c.deltaPreds[p] {
				if touched >= 0 && touched != ci {
					return nil, false, false, nil // query spans two components
				}
				touched = ci
			}
		}
	}
	insts := []*relation.Instance{cf.inst}
	if touched >= 0 {
		insts = cf.repairs(touched)
	}
	ans, err = IntersectAnswersOpt(insts, q, vars, cf.opt)
	return ans, false, true, err
}

// repairs returns component ci's repaired instances: those its search
// built in this run, or else its deltas applied to the instance.
func (cf *conflicts) repairs(ci int) []*relation.Instance {
	if insts := cf.repaired[ci]; insts != nil {
		return insts
	}
	deltas := cf.comps[ci].deltas
	insts := make([]*relation.Instance, len(deltas))
	for i, d := range deltas {
		insts[i] = cf.inst.Clone()
		cf.applyDelta(insts[i], d)
	}
	return insts
}

// tryLocalize is the engine's one-shot driver: it partitions the root
// violations of inst and solves every component. ok reports whether it
// applied and completed exactly; on false the caller must run the
// global wave search (any internal error also reports false, so the
// global engine reproduces the canonical error behaviour).
func tryLocalize(inst *relation.Instance, deps []*constraint.Dependency, opt Options) (*conflicts, bool) {
	if opt.NoLocalize || opt.MaxRepairs > 0 || len(deps) == 0 || !localizable(deps, opt.Fixed) {
		return nil, false
	}
	vios, err := constraint.AllViolations(inst, deps)
	if err != nil || len(vios) < 2 {
		return nil, false
	}
	support, err := headSupports(inst, deps)
	if err != nil {
		return nil, false
	}
	cf := newConflicts(inst, deps, constraint.NewDepIndex(deps), symtab.New(), opt, vios, support)
	if len(cf.groups) < 2 {
		return nil, false
	}
	cf.index()
	if ok, err := cf.solve(); !ok || err != nil {
		return nil, false
	}
	total := 1
	for _, c := range cf.comps {
		if total *= len(c.deltas); total > maxComposedRepairs {
			return nil, false
		}
	}
	return cf, true
}

// materialize composes the global minimal repair set: the cross-product
// of the component repair deltas applied to the original instance. With
// ordered set, the result is sorted by canonical instance key —
// byte-identical to the global wave search's output; answering paths
// pass false and skip the per-repair key renders (intersection over the
// repair set is order-independent, and rendering every composed repair
// is the dominant cost at large-universe scale). A component with no
// repairs makes the product empty.
func (cf *conflicts) materialize(ordered bool) []*relation.Instance {
	total := 1
	for _, c := range cf.comps {
		total *= len(c.deltas)
	}
	if total == 0 {
		return nil
	}
	insts, _ := parallel.MapErr(total, parallel.Workers(cf.opt.Parallelism), func(idx int) (*relation.Instance, error) {
		out := cf.inst.Clone()
		rem := idx
		for _, c := range cf.comps {
			cf.applyDelta(out, c.deltas[rem%len(c.deltas)])
			rem /= len(c.deltas)
		}
		return out, nil
	})
	if ordered {
		insts = SortDistinct(insts, cf.opt.Parallelism)
	}
	return insts
}

// applyDelta toggles every fact of a delta: a delta is a symmetric
// difference against the original instance, and component deltas are
// disjoint, so each fact flips exactly once across the composition.
func (cf *conflicts) applyDelta(in *relation.Instance, delta bitset.Set) {
	delta.ForEach(func(id uint32) {
		f := relation.ParseFactIDKey(cf.facts.Name(symtab.Sym(id)))
		if in.Has(f.Rel, f.Tuple) {
			in.Delete(f.Rel, f.Tuple)
		} else {
			in.Insert(f.Rel, f.Tuple)
		}
	})
}

// buildComponents partitions the root violations into the connected
// components of the conflict graph, given their interaction
// signatures, returned as ascending violation index lists ordered by
// first violation.
func buildComponents(vios []constraint.Violation, infos []vioInfo) [][]int {
	uf := newUnionFind(len(vios))
	// Fact-level edges: violations whose touchable facts overlap.
	owner := map[string]int{}
	for i, inf := range infos {
		for key := range inf.factSet {
			if j, ok := owner[key]; ok {
				uf.union(i, j)
			} else {
				owner[key] = i
			}
		}
	}
	// Predicate-level edges: a cascading violation reaches everything
	// whose facts or frontier live on a predicate it can reach.
	var cascading []int
	for i, inf := range infos {
		if inf.predSet != nil {
			cascading = append(cascading, i)
		}
	}
	for _, i := range cascading {
		for j := range infos {
			if i == j || uf.find(i) == uf.find(j) {
				continue
			}
			if intersects(infos[i].predSet, infos[j].factPreds) || intersects(infos[i].predSet, infos[j].predSet) {
				uf.union(i, j)
			}
		}
	}

	groups := map[int][]int{}
	for i := range vios {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	var comps [][]int
	for _, g := range groups {
		sort.Ints(g)
		comps = append(comps, g)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// depInteraction is the dependency-interaction context of
// violationInfos.
type depInteraction struct {
	// witnessDeps[key] lists the full TGDs some body match of which
	// grounds a head atom to the fact: deleting that fact can un-witness
	// the match, creating a new violation of the dependency.
	witnessDeps map[string][]int
	// exHeadDeps[pred] lists the existential TGDs with the predicate in
	// their head: any fact of the predicate is potentially a witness.
	exHeadDeps map[string][]int
	// bodyPreds are the predicates read by any dependency body: an
	// insertion there can create new matches, hence new violations over
	// arbitrary existing facts.
	bodyPreds map[string]bool
}

// newDepInteraction computes the interaction context of deps, given
// every full TGD's head-fact support over the instance (headSupports;
// the incremental driver keeps these counts current from deltas).
func newDepInteraction(deps []*constraint.Dependency, support []map[string]int) *depInteraction {
	di := &depInteraction{
		witnessDeps: map[string][]int{},
		exHeadDeps:  map[string][]int{},
		bodyPreds:   map[string]bool{},
	}
	for i, d := range deps {
		for _, a := range d.Body {
			di.bodyPreds[a.Pred] = true
		}
		if !d.IsTGD() {
			continue
		}
		if len(d.ExVars) > 0 {
			for _, h := range d.Head {
				di.exHeadDeps[h.Pred] = append(di.exHeadDeps[h.Pred], i)
			}
			continue
		}
		for g := range support[i] {
			di.witnessDeps[g] = append(di.witnessDeps[g], i)
		}
	}
	return di
}

// violationInfos computes each root violation's interaction signature
// over an interaction context current for inst.
func violationInfos(inst *relation.Instance, deps []*constraint.Dependency, vios []constraint.Violation, fixed map[string]bool, ctx *depInteraction) []vioInfo {
	witnessDeps, exHeadDeps, bodyPreds := ctx.witnessDeps, ctx.exHeadDeps, ctx.bodyPreds
	infos := make([]vioInfo, len(vios))
	for i, v := range vios {
		inf := vioInfo{factSet: map[string]bool{}, factPreds: map[string]bool{}}
		var seeds []string
		open := false
		addSeed := func(p string) {
			if !fixed[p] {
				seeds = append(seeds, p)
			}
		}
		for _, ba := range v.Dep.Body {
			g := v.Subst.Apply(ba)
			if fixed[g.Pred] || !inst.HasAtom(g) {
				continue
			}
			key := atomFact(g).IDKey()
			inf.factSet[key] = true
			inf.factPreds[g.Pred] = true
			// Deletion cascades: the fact may witness another TGD.
			for _, di := range witnessDeps[key] {
				open = true
				for p := range deps[di].Preds() {
					addSeed(p)
				}
			}
			for _, di := range exHeadDeps[g.Pred] {
				open = true
				for p := range deps[di].Preds() {
					addSeed(p)
				}
			}
		}
		if v.Dep.IsTGD() {
			if len(v.Dep.ExVars) > 0 {
				// Witness-chosen insertions: predicate-level only.
				open = true
				for _, h := range v.Dep.Head {
					addSeed(h.Pred)
				}
			} else {
				for _, h := range v.Dep.Head {
					g := v.Subst.Apply(h)
					if fixed[g.Pred] || !g.IsGround() {
						continue
					}
					inf.factSet[atomFact(g).IDKey()] = true
					inf.factPreds[g.Pred] = true
					if bodyPreds[g.Pred] {
						// The insertion can create new body matches.
						open = true
						addSeed(g.Pred)
					}
				}
			}
		}
		if open {
			for p := range inf.factPreds {
				addSeed(p)
			}
			inf.predSet = cascadeClosure(seeds, deps, fixed)
		}
		infos[i] = inf
	}
	return infos
}

// headSupports computes headSupport for every full TGD of deps (nil
// for the other dependencies).
func headSupports(inst *relation.Instance, deps []*constraint.Dependency) ([]map[string]int, error) {
	support := make([]map[string]int, len(deps))
	for i, d := range deps {
		if d.IsFullTGD() {
			var err error
			if support[i], err = headSupport(inst, d); err != nil {
				return nil, err
			}
		}
	}
	return support, nil
}

// headSupport counts, for every fact a head atom of the full TGD
// grounds to under some body match over the instance, the body matches
// that ground a head atom to it. Deleting such a fact can un-witness a
// match, creating a new violation of the dependency; the counts let the
// incremental layer keep the set current from deltas (countHeads).
func headSupport(inst *relation.Instance, d *constraint.Dependency) (map[string]int, error) {
	support := map[string]int{}
	err := d.BodyMatches(inst, func(s term.Subst) error {
		countHeads(support, d, s, 1)
		return nil
	})
	return support, err
}

// countHeads adds n to the support of every distinct fact the head
// atoms ground to under the match s, forgetting facts left without any.
func countHeads(support map[string]int, d *constraint.Dependency, s term.Subst, n int) {
	var keys []string
next:
	for _, h := range d.Head {
		g := s.Apply(h)
		if !g.IsGround() {
			continue
		}
		key := atomFact(g).IDKey()
		for _, k := range keys {
			if k == key {
				continue next
			}
		}
		keys = append(keys, key)
		if support[key] += n; support[key] == 0 {
			delete(support, key)
		}
	}
}

// cascadeClosure computes the mutable-predicate dependency closure of
// the seeds: whenever a dependency mentions a predicate of the set, its
// mutable predicates join (its violations can appear or vanish, and its
// repairs can touch them).
func cascadeClosure(seeds []string, deps []*constraint.Dependency, fixed map[string]bool) map[string]bool {
	f := map[string]bool{}
	for _, p := range seeds {
		f[p] = true
	}
	for changed := true; changed; {
		changed = false
		for _, d := range deps {
			hit := false
			for p := range d.Preds() {
				if f[p] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for p := range d.Preds() {
				if !fixed[p] && !f[p] {
					f[p] = true
					changed = true
				}
			}
		}
	}
	return f
}

// domainDependentDep mirrors slice.domainDependent for the repair
// engine's Fixed set: a TGD whose repair may enumerate the active
// domain for a witness observes constants of arbitrary relations, so
// conflict components are not independent in its presence.
func domainDependentDep(d *constraint.Dependency, fixed map[string]bool) bool {
	if !d.IsTGD() || len(d.ExVars) == 0 {
		return false
	}
	bound := map[string]bool{}
	fixedHeads := 0
	for _, h := range d.Head {
		if !fixed[h.Pred] {
			continue
		}
		fixedHeads++
		for _, v := range h.Vars(nil) {
			bound[v] = true
		}
	}
	if fixedHeads == 0 {
		return true
	}
	for _, v := range d.ExVars {
		if !bound[v] {
			return true
		}
	}
	return false
}

func intersects(a, b map[string]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// unionFind is a plain union-find over violation indices.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(i int) int {
	for uf.parent[i] != i {
		uf.parent[i] = uf.parent[uf.parent[i]]
		i = uf.parent[i]
	}
	return i
}

func (uf *unionFind) union(i, j int) {
	ri, rj := uf.find(i), uf.find(j)
	if ri != rj {
		uf.parent[ri] = rj
	}
}
