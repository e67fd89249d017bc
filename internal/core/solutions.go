package core

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/repair"
)

// SolveOptions configures solution computation.
type SolveOptions struct {
	// MaxDelta and MaxRepairs are passed to the repair engine per stage.
	MaxDelta   int
	MaxRepairs int
	// Parallelism bounds the worker pools at every level of the
	// engine: the wave expansion inside each repair search
	// (repair.Options.Parallelism), the stage-2 repair fan-out of
	// SolutionsFor and the per-solution query evaluation of
	// PeerConsistentAnswers. 0 means GOMAXPROCS; 1 forces the
	// sequential path. Pruning and result merges are deterministic at
	// every layer, so every parallelism level produces byte-identical
	// output.
	Parallelism int
	// KeepDep, when non-nil, restricts enforcement to the dependencies
	// it accepts — the query-relevance projection of internal/slice
	// (slice.Slice.KeepDep). Dropped dependencies must be irrelevant to
	// the query in the sense documented there; query answers are then
	// identical to the unsliced run.
	KeepDep func(*constraint.Dependency) bool
	// RelevantRels, when non-nil, restricts the repaired instance to
	// the named relations (the slice's relation set, which must cover
	// every relation of KeepDep-accepted dependencies and the whole
	// schema of the queried peer): the global instance is restricted
	// before stage 1, so the repair search never materializes
	// irrelevant relations.
	RelevantRels map[string]bool
	// NoLocalize disables the conflict-localized repair engine
	// (repair.Options.NoLocalize) in every stage: the searches then run
	// as single global wave searches. Localization is exact, so this is
	// an A/B knob, not a semantics switch.
	NoLocalize bool
	// RepairStats, when non-nil, accumulates repair-engine counters
	// (searches, localized engagements, conflict components) across the
	// stages — the serving plane reads them for its component-count
	// metrics. Purely observational.
	RepairStats *repair.Stats
}

// keeps applies the KeepDep filter (nil keeps everything).
func (o SolveOptions) keeps(d *constraint.Dependency) bool {
	return o.KeepDep == nil || o.KeepDep(d)
}

// repairOptions translates SolveOptions into per-stage repair options.
func (o SolveOptions) repairOptions(fixed map[string]bool) repair.Options {
	return repair.Options{
		Fixed:       fixed,
		MaxDelta:    o.MaxDelta,
		MaxRepairs:  o.MaxRepairs,
		Parallelism: o.Parallelism,
		NoLocalize:  o.NoLocalize,
		Stats:       o.RepairStats,
	}
}

// workers resolves Parallelism for a fan-out.
func (o SolveOptions) workers() int { return parallel.Workers(o.Parallelism) }

// stages is the dependency split of Definition 4 for one peer under
// SolveOptions.KeepDep: the repair problems of its two stages.
type stages struct {
	// stage1 are the less-trust DECs followed by the local ICs; fixed1
	// holds every relation not owned by the peer.
	stage1 []*constraint.Dependency
	fixed1 map[string]bool
	// same are the same-trust DECs. When there are any, stage2 are the
	// same-trust DECs followed by stage1, and fixed2 holds the relations
	// of every peer other than the peer itself and those it trusts the
	// same.
	same   []*constraint.Dependency
	stage2 []*constraint.Dependency
	fixed2 map[string]bool
}

// splitStages computes the stage split of peer id (which must exist).
func (s *System) splitStages(id PeerID, opt SolveOptions) stages {
	p := s.peers[id]
	var st stages
	for _, q := range s.TrustedPeers(id, TrustLess) {
		for _, d := range p.DECs[q] {
			if opt.keeps(d) {
				st.stage1 = append(st.stage1, d)
			}
		}
	}
	for _, q := range s.TrustedPeers(id, TrustSame) {
		for _, d := range p.DECs[q] {
			if opt.keeps(d) {
				st.same = append(st.same, d)
			}
		}
	}
	for _, ic := range p.ICs {
		if opt.keeps(ic) {
			st.stage1 = append(st.stage1, ic)
		}
	}
	st.fixed1 = map[string]bool{}
	for rel, owner := range s.owner {
		if owner != id {
			st.fixed1[rel] = true
		}
	}
	if len(st.same) == 0 {
		return st
	}
	st.stage2 = append(append([]*constraint.Dependency{}, st.same...), st.stage1...)
	st.fixed2 = map[string]bool{}
	mutableOwners := map[PeerID]bool{id: true}
	for _, q := range s.TrustedPeers(id, TrustSame) {
		mutableOwners[q] = true
	}
	for rel, owner := range s.owner {
		if !mutableOwners[owner] {
			st.fixed2[rel] = true
		}
	}
	return st
}

// SolutionsFor computes the solutions for peer P (Definition 4, direct
// case) on the system's current global instance:
//
//	stage 1: repair r̄ w.r.t. ⋃{Σ(P,Q) | (P,less,Q)} ∪ IC(P), holding
//	         every relation not owned by P fixed;
//	stage 2: repair each stage-1 result w.r.t. the same-trust DECs
//	         (keeping the less-trust DECs and IC(P) satisfied), with
//	         P's and the same-trusted peers' relations mutable and the
//	         more-trusted peers' relations fixed.
//
// Relations of peers that appear in no DEC of P are untouched
// (condition (b) of Definition 4). The result is deduplicated and
// sorted by canonical instance key.
func SolutionsFor(s *System, id PeerID, opt SolveOptions) ([]*relation.Instance, error) {
	if _, ok := s.peers[id]; !ok {
		return nil, fmt.Errorf("core: unknown peer %s", id)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := s.splitStages(id, opt)

	global := s.Global()
	if opt.RelevantRels != nil {
		global = global.RestrictRels(opt.RelevantRels)
	}

	// Stage 1: only P's own relations are mutable. Repairs returns its
	// repairs distinct and sorted, so one repair set is returned as is.
	stage1, err := repair.Repairs(global, st.stage1, opt.repairOptions(st.fixed1))
	if err != nil && err != repair.ErrBound {
		return nil, fmt.Errorf("core: stage-1 repairs for %s: %w", id, err)
	}
	if len(st.same) == 0 {
		return stage1, nil
	}

	// Stage 2 is embarrassingly parallel: each stage-1 repair is an
	// independent repair problem. Fan out across a bounded worker pool
	// and flatten in stage-1 order before the deterministic merge, so
	// the result is byte-identical to the sequential loop at every
	// parallelism level.
	perRepair, err := parallel.MapErr(len(stage1), opt.workers(), func(i int) ([]*relation.Instance, error) {
		reps, err := repair.Repairs(stage1[i], st.stage2, opt.repairOptions(st.fixed2))
		if err != nil && err != repair.ErrBound {
			return nil, err
		}
		return reps, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: stage-2 repairs for %s: %w", id, err)
	}
	if len(perRepair) == 1 {
		return perRepair[0], nil
	}
	var out []*relation.Instance
	for _, reps := range perRepair {
		out = append(out, reps...)
	}
	return repair.SortDistinct(out, opt.Parallelism), nil
}

// ErrNoSolutions is returned when a peer admits no solution (e.g. a
// violated DEC whose relations are all fixed); the paper reflects this
// as the non-existence of answer sets.
var ErrNoSolutions = fmt.Errorf("core: peer has no solutions")

// PeerConsistentAnswers computes the PCAs of Definition 5: the tuples
// t̄ with r'|P ⊨ Q(t̄) for every solution r' for the peer — the query is
// evaluated on the restriction of each solution to the peer's own
// schema R(P).
func PeerConsistentAnswers(s *System, id PeerID, q foquery.Formula, vars []string, opt SolveOptions) ([]relation.Tuple, error) {
	p, sols, err := solutionsForQuery(s, id, q, opt)
	if err != nil {
		return nil, err
	}
	restricted := make([]*relation.Instance, len(sols))
	parallel.Run(len(sols), opt.workers(), func(i int) {
		restricted[i] = sols[i].Restrict(p.Schema)
	})
	return repair.IntersectAnswersOpt(restricted, q, vars, repair.Options{Parallelism: opt.Parallelism})
}

// solutionsForQuery is the common prologue of the answer semantics: the
// peer, after checking that the query is in L(P), and its solutions,
// of which there must be at least one.
func solutionsForQuery(s *System, id PeerID, q foquery.Formula, opt SolveOptions) (*Peer, []*relation.Instance, error) {
	p, ok := s.peers[id]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown peer %s", id)
	}
	if err := checkQuerySchema(p, q); err != nil {
		return nil, nil, err
	}
	sols, err := SolutionsFor(s, id, opt)
	if err != nil {
		return nil, nil, err
	}
	if len(sols) == 0 {
		return nil, nil, ErrNoSolutions
	}
	return p, sols, nil
}

func checkQuerySchema(p *Peer, q foquery.Formula) error {
	for _, pred := range formulaPreds(q) {
		if !p.Schema.Has(pred) {
			return fmt.Errorf("core: query uses relation %s outside L(%s)", pred, p.ID)
		}
	}
	return nil
}

func formulaPreds(f foquery.Formula) []string { return foquery.Preds(f) }

// IsPCA reports whether a specific ground tuple is a peer consistent
// answer for the query (Definition 5 membership test).
func IsPCA(s *System, id PeerID, q foquery.Formula, vars []string, tup relation.Tuple, opt SolveOptions) (bool, error) {
	ans, err := PeerConsistentAnswers(s, id, q, vars, opt)
	if err != nil {
		return false, err
	}
	for _, a := range ans {
		if a.Equal(tup) {
			return true, nil
		}
	}
	return false, nil
}
