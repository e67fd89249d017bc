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

// component is one connected component of the conflict graph after its
// search ran: the ⊆-minimal repairs of the component's conflicts with
// every fact outside the component frozen.
type component struct {
	// vios are the indices of the component's root violations.
	vios []int
	// deltas are the minimal repair deltas (fact-id bitsets over the
	// plan's shared table); disjoint across components.
	deltas []bitset.Set
	// insts are the matching repaired instances (orig Δ delta).
	insts []*relation.Instance
	// deltaPreds are the predicates occurring in any delta — the
	// relations on which this component's repairs can disagree.
	deltaPreds map[string]bool
}

// localPlan is the result of a successful conflict-localized search:
// everything needed to materialize the global repair set, or to answer
// queries per component without materializing it.
type localPlan struct {
	orig  *relation.Instance
	facts *symtab.Table
	comps []*component
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

// tryLocalize runs the conflict-localized engine. ok reports whether it
// applied and completed exactly; on false the caller must run the
// global wave search (any internal error also reports false, so the
// global engine reproduces the canonical error behaviour).
func tryLocalize(inst *relation.Instance, deps []*constraint.Dependency, opt Options) (*localPlan, bool) {
	if opt.NoLocalize || opt.MaxRepairs > 0 || len(deps) == 0 {
		return nil, false
	}
	seen := map[*constraint.Dependency]bool{}
	for _, d := range deps {
		if seen[d] {
			return nil, false // duplicate entries break per-dep indexing
		}
		seen[d] = true
		if domainDependentDep(d, opt.Fixed) {
			return nil, false
		}
	}
	vios, err := constraint.AllViolations(inst, deps)
	if err != nil || len(vios) < 2 {
		return nil, false
	}
	comps := buildComponents(inst, deps, vios, opt.Fixed)
	if len(comps) < 2 {
		return nil, false
	}

	depOf := map[*constraint.Dependency]int{}
	for i, d := range deps {
		depOf[d] = i
	}
	depIdx := constraint.NewDepIndex(deps)
	facts := symtab.New()
	keys, skip := rootKeys(vios, depOf, len(deps))
	searchers, err := parallel.MapErr(len(comps), parallel.Workers(opt.Parallelism), func(ci int) (*searcher, error) {
		innerOpt := opt
		innerOpt.Parallelism = 1 // components are the unit of fan-out
		s := &searcher{orig: inst, deps: deps, opt: innerOpt, facts: facts, front: newFrontier(), depIdx: depIdx}
		s.front.noSubsume = true
		s.own(comps[ci], vios, keys, depOf, skip)
		return s, s.run()
	})
	if err != nil {
		return nil, false
	}

	// Bound exactness: if any component hit the bound, or the generated
	// deltas could sum past it along an interleaved global branch, let
	// the global engine decide ErrBound canonically.
	sumMax := 0
	for _, s := range searchers {
		if s.hitBound {
			return nil, false
		}
		sumMax += s.maxDeltaSeen
	}
	if sumMax >= opt.MaxDelta {
		return nil, false
	}

	pl := &localPlan{orig: inst, facts: facts, comps: make([]*component, len(comps))}
	total := 1
	for ci, s := range searchers {
		insts, kept := minimalByDelta(s.found, s.foundDelta)
		c := &component{vios: comps[ci], insts: insts, deltaPreds: map[string]bool{}}
		c.deltas = make([]bitset.Set, len(kept))
		for i, k := range kept {
			c.deltas[i] = s.foundDelta[k]
			s.foundDelta[k].ForEach(func(id uint32) {
				c.deltaPreds[relation.ParseFactIDKey(facts.Name(symtab.Sym(id))).Rel] = true
			})
		}
		pl.comps[ci] = c
		if total > 0 {
			total *= len(c.deltas)
		}
		if total > maxComposedRepairs {
			return nil, false
		}
	}
	return pl, true
}

// materialize composes the global minimal repair set: the cross-product
// of the component repair deltas applied to the original instance. With
// ordered set, the result is sorted by canonical instance key —
// byte-identical to the global wave search's output; answering paths
// pass false and skip the per-repair key renders (intersection over the
// repair set is order-independent, and rendering every composed repair
// is the dominant cost at large-universe scale). A component with no
// repairs makes the product empty.
func (pl *localPlan) materialize(opt Options, ordered bool) []*relation.Instance {
	total := 1
	for _, c := range pl.comps {
		total *= len(c.deltas)
	}
	if total == 0 {
		return nil
	}
	insts, _ := parallel.MapErr(total, parallel.Workers(opt.Parallelism), func(idx int) (*relation.Instance, error) {
		out := pl.orig.Clone()
		rem := idx
		for _, c := range pl.comps {
			pl.applyDelta(out, c.deltas[rem%len(c.deltas)])
			rem /= len(c.deltas)
		}
		return out, nil
	})
	if ordered {
		sortByKey(insts, opt.Parallelism)
	}
	return insts
}

// applyDelta toggles every fact of a delta: a delta is a symmetric
// difference against the original instance, and component deltas are
// disjoint, so each fact flips exactly once across the composition.
func (pl *localPlan) applyDelta(in *relation.Instance, delta bitset.Set) {
	delta.ForEach(func(id uint32) {
		f := relation.ParseFactIDKey(pl.facts.Name(symtab.Sym(id)))
		if in.Has(f.Rel, f.Tuple) {
			in.Delete(f.Rel, f.Tuple)
		} else {
			in.Insert(f.Rel, f.Tuple)
		}
	})
}

// buildComponents partitions the root violations into the connected
// components of the conflict graph, returned as ascending violation
// index lists ordered by first violation.
func buildComponents(inst *relation.Instance, deps []*constraint.Dependency, vios []constraint.Violation, fixed map[string]bool) [][]int {
	return buildComponentsFrom(vios, violationInfos(inst, deps, vios, fixed))
}

// buildComponentsFrom is the union-find core of buildComponents over
// precomputed interaction signatures.
func buildComponentsFrom(vios []constraint.Violation, infos []vioInfo) [][]int {
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
// violationInfos, split out so the incremental layer (incr.go) can
// maintain its instance-dependent part (the full TGDs' head-fact
// support) across deltas instead of re-enumerating every full TGD's
// body matches per call.
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

// newDepInteraction computes the interaction context from scratch:
// the structural maps plus the per-instance full-TGD witness facts.
func newDepInteraction(inst *relation.Instance, deps []*constraint.Dependency) *depInteraction {
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
		// A match error leaves the support empty: the global engine
		// reproduces the error canonically if it is real.
		support, _ := headSupport(inst, d)
		for g := range support {
			di.witnessDeps[g] = append(di.witnessDeps[g], i)
		}
	}
	return di
}

// violationInfos computes each root violation's interaction signature.
func violationInfos(inst *relation.Instance, deps []*constraint.Dependency, vios []constraint.Violation, fixed map[string]bool) []vioInfo {
	return violationInfosWith(inst, deps, vios, fixed, newDepInteraction(inst, deps))
}

// violationInfosWith is violationInfos over a caller-supplied
// interaction context (which must be current for inst).
func violationInfosWith(inst *relation.Instance, deps []*constraint.Dependency, vios []constraint.Violation, fixed map[string]bool, ctx *depInteraction) []vioInfo {
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
