package repair

import (
	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// ConsistentAnswers computes the consistent answers to a query in the
// sense of [Arenas, Bertossi, Chomicki, PODS 99]: the tuples returned
// by the query in every repair of the instance. This is the
// single-database CQA baseline against which the paper contrasts peer
// consistent answers (Section 2). Query evaluation over the repairs is
// fanned out across Options.Parallelism workers; the intersection is
// order-independent, so the result does not depend on the degree of
// parallelism.
//
// When the conflict-localized engine applies (localize.go) and the
// query is domain-free with relations that intersect the deltas of at
// most one conflict component, the intersection is evaluated over that
// component's repairs alone (conflicts.answer): repairs of the other
// components agree with it on every relation the query can observe, so
// the 2^k cross-product of scattered conflicts is never materialized.
func ConsistentAnswers(inst *relation.Instance, deps []*constraint.Dependency, q foquery.Formula, vars []string, opt Options) ([]relation.Tuple, error) {
	if err := validate(deps); err != nil {
		return nil, err
	}
	if opt.MaxDelta == 0 {
		opt.MaxDelta = inst.Size() + 64
	}
	if cf, ok := tryLocalize(inst, deps, opt); ok {
		opt.Stats.record(len(cf.comps))
		if DomainFreeQuery(q) {
			if ans, _, ok, err := cf.answer(q, vars); ok {
				return ans, err
			}
		}
		// The intersection below is order-independent, so the composed
		// repairs skip the canonical sort (and its per-repair key renders).
		return IntersectAnswersOpt(cf.materialize(false), q, vars, opt)
	}
	opt.Stats.record(-1)
	reps, err := searchRepairs(inst, deps, opt)
	if err != nil && err != ErrBound {
		return nil, err
	}
	boundErr := err
	ans, err := IntersectAnswersOpt(reps, q, vars, opt)
	if err != nil {
		return nil, err
	}
	return ans, boundErr
}

// DomainFreeQuery reports whether evaluating the formula can never
// consult the active domain: only positive atoms under conjunction and
// disjunction qualify (every such subformula is a generator, so the
// evaluator's domain-enumeration fallback is unreachable). Negation,
// quantifiers, implications and comparisons all may observe constants
// of relations outside the query's predicates. Only such queries are
// answered per conflict component; callers can test it before building
// an IncrState, whose Answers refuses every other shape.
func DomainFreeQuery(f foquery.Formula) bool {
	switch g := f.(type) {
	case foquery.Atom:
		return true
	case foquery.And:
		for _, h := range g.Fs {
			if !DomainFreeQuery(h) {
				return false
			}
		}
		return true
	case foquery.Or:
		for _, h := range g.Fs {
			if !DomainFreeQuery(h) {
				return false
			}
		}
		return true
	}
	return false
}

// IntersectAnswers evaluates the query on each instance and returns
// the tuples present in all of them, sorted. With no instances it
// returns nil (no solutions: every tuple vacuously qualifies is the
// other convention; we follow the paper's practice of reporting
// "no solutions" separately). Evaluation uses the default worker pool
// (GOMAXPROCS); use IntersectAnswersOpt to bound it.
func IntersectAnswers(insts []*relation.Instance, q foquery.Formula, vars []string) ([]relation.Tuple, error) {
	return IntersectAnswersOpt(insts, q, vars, Options{})
}

// IntersectAnswersOpt is IntersectAnswers with an explicit worker-pool
// bound (Options.Parallelism; 0 means GOMAXPROCS, 1 is sequential).
// Each instance is queried independently — the embarrassingly parallel
// step of Definition 5 — and the per-instance answer sets are merged by
// counting, which is commutative: the output is byte-identical at every
// parallelism level.
func IntersectAnswersOpt(insts []*relation.Instance, q foquery.Formula, vars []string, opt Options) ([]relation.Tuple, error) {
	if len(insts) == 0 {
		return nil, nil
	}
	perInst, err := parallel.MapErr(len(insts), parallel.Workers(opt.Parallelism), func(i int) ([]relation.Tuple, error) {
		return foquery.Answers(insts[i], q, vars)
	})
	if err != nil {
		return nil, err
	}
	// Counting merge over a single map: a tuple is in the intersection
	// iff it appears in instance 0 and then in every later instance. A
	// candidate's count reaches i exactly when instances 0..i-1 all
	// contained it, so incrementing only on count == i both advances
	// survivors and absorbs duplicate answers within one instance — no
	// per-instance seen map needed.
	type cand struct {
		tup   relation.Tuple
		count int
	}
	cands := make(map[string]cand)
	for _, t := range perInst[0] {
		k := t.Key()
		if _, ok := cands[k]; !ok {
			cands[k] = cand{tup: t, count: 1}
		}
	}
	for i := 1; i < len(perInst); i++ {
		for _, t := range perInst[i] {
			k := t.Key()
			if c, ok := cands[k]; ok && c.count == i {
				c.count = i + 1
				cands[k] = c
			}
		}
	}
	var out []relation.Tuple
	var keys []string
	for k, c := range cands {
		if c.count == len(insts) {
			out = append(out, c.tup)
			keys = append(keys, k)
		}
	}
	relation.SortKeyed(out, keys)
	return out, nil
}
