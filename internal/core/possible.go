package core

import (
	"repro/internal/foquery"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// PossibleAnswers computes the brave counterpart of Definition 5: the
// tuples t̄ with r'|P ⊨ Q(t̄) for *some* solution r' for the peer. The
// paper computes PCAs under the skeptical answer set semantics; the
// brave modality is the standard dual in consistent query answering
// and is exposed here as an extension (the same solutions are used,
// answers are unioned instead of intersected).
func PossibleAnswers(s *System, id PeerID, q foquery.Formula, vars []string, opt SolveOptions) ([]relation.Tuple, error) {
	p, sols, err := solutionsForQuery(s, id, q, opt)
	if err != nil {
		return nil, err
	}
	// Per-solution evaluation fans out like PeerConsistentAnswers; the
	// union merge is order-independent and the output sorted, so the
	// result is identical at every parallelism level.
	perSol, err := parallel.MapErr(len(sols), opt.workers(), func(i int) ([]relation.Tuple, error) {
		return foquery.Answers(sols[i].Restrict(p.Schema), q, vars)
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []relation.Tuple
	var keys []string
	for _, ans := range perSol {
		for _, t := range ans {
			if k := t.Key(); !seen[k] {
				seen[k] = true
				out = append(out, t)
				keys = append(keys, k)
			}
		}
	}
	relation.SortKeyed(out, keys)
	return out, nil
}
