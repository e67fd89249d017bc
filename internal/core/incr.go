package core

import "repro/internal/constraint"

// ReduceSingleStage reports whether SolutionsFor for peer id collapses
// to a single repair problem over the global instance, and returns
// that problem's dependency set and fixed-predicate set. This is the
// precondition of the incremental re-answering path (peernet): a
// series of fact-level deltas can patch one repair problem's component
// decomposition, but not the two-stage composition of Definition 4.
//
// Two shapes reduce:
//
//   - no same-trust DECs: SolutionsFor returns the stage-1 repairs
//     directly, i.e. one search over the less-trust DECs plus local
//     ICs with every foreign relation fixed;
//   - same-trust DECs only (no less-trust DECs, no ICs): stage 1
//     degenerates to the identity (a repair search over no
//     dependencies returns the instance itself), so the solutions are
//     exactly the stage-2 repairs of the global instance over the
//     same-trust DECs with the more-trusted peers' relations fixed.
//
// The dependency filter (SolveOptions.KeepDep) is applied exactly as
// SolutionsFor applies it, so the reduced problem matches what the
// full path would solve under the same options.
func ReduceSingleStage(s *System, id PeerID, opt SolveOptions) (deps []*constraint.Dependency, fixed map[string]bool, ok bool) {
	if _, found := s.peers[id]; !found {
		return nil, nil, false
	}
	st := s.splitStages(id, opt)
	switch {
	case len(st.same) == 0:
		return st.stage1, st.fixed1, true
	case len(st.stage1) == 0:
		return st.stage2, st.fixed2, true
	}
	return nil, nil, false
}
