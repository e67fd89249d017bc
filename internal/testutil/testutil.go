// Package testutil provides the shared harness of the cross-package
// determinism stress tests: it renders everything the engines compute
// for one (system, peer, query) triple — repairs/solutions, the ground
// program, stable models and both routes' consistent answers — into a
// single canonical byte string, so tests can assert that every
// parallelism level produces byte-identical results. It also provides
// the oracle the networked answering path is tested against.
package testutil

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/lp/solve"
	"repro/internal/program"
	"repro/internal/relation"
)

// DefaultLevels is the parallelism sweep of the determinism stress
// tests: the sequential engine, small pools, and a pool larger than the
// work on the small fixtures (so the "more workers than items" paths
// are exercised too).
var DefaultLevels = []int{1, 2, 4, 8}

// Fingerprint renders every engine output for the triple into one
// canonical string. Errors are part of the fingerprint (a deterministic
// engine must fail identically at every parallelism level), so the
// helper only returns an error for setup problems (e.g. an unparsable
// query).
func Fingerprint(s *core.System, id core.PeerID, query string, vars []string, par int) (string, error) {
	q, err := foquery.Parse(query)
	if err != nil {
		return "", fmt.Errorf("testutil: bad query %q: %v", query, err)
	}
	var b strings.Builder

	// Repair-engine route: solutions (= repairs of Definition 4), peer
	// consistent answers, possible answers.
	sols, err := core.SolutionsFor(s, id, core.SolveOptions{Parallelism: par})
	fmt.Fprintf(&b, "solutions err=%v\n", err)
	for _, r := range sols {
		fmt.Fprintf(&b, "solution %s\n", r.Key())
	}
	pca, err := core.PeerConsistentAnswers(s, id, q, vars, core.SolveOptions{Parallelism: par})
	fmt.Fprintf(&b, "pca err=%v tuples=%v\n", err, pca)
	poss, err := core.PossibleAnswers(s, id, q, vars, core.SolveOptions{Parallelism: par})
	fmt.Fprintf(&b, "possible err=%v tuples=%v\n", err, poss)

	// LP route: the ground program itself (grounding must be
	// byte-identical, not just model-equivalent), its stable models,
	// and the LP-side consistent answers.
	prog, _, err := program.BuildDirect(s, id)
	if err != nil {
		fmt.Fprintf(&b, "lp build err=%v\n", err)
		return b.String(), nil
	}
	unfolded, err := lp.UnfoldChoice(prog)
	if err != nil {
		fmt.Fprintf(&b, "lp unfold err=%v\n", err)
		return b.String(), nil
	}
	g, err := ground.GroundOpt(unfolded, ground.Options{Parallelism: par})
	if err != nil {
		fmt.Fprintf(&b, "lp ground err=%v\n", err)
		return b.String(), nil
	}
	fmt.Fprintf(&b, "ground atoms=%v\n", g.Atoms)
	b.WriteString(g.String())
	models, err := solve.StableModels(g, solve.Options{Parallelism: par})
	fmt.Fprintf(&b, "models err=%v\n", err)
	b.WriteString(solve.FormatModels(models))
	lpAns, err := program.PeerConsistentAnswersViaLP(s, id, q, vars, program.RunOptions{Parallelism: par})
	fmt.Fprintf(&b, "lp pca err=%v tuples=%v\n", err, lpAns)
	return b.String(), nil
}

// RequireParallelismInvariant asserts that the fingerprint of the
// triple is byte-identical at every level (the first level is the
// reference). The system builder is invoked once per level so the
// levels cannot influence each other through shared caches or symbol
// tables.
func RequireParallelismInvariant(t *testing.T, name string, build func() *core.System, id core.PeerID, query string, vars []string, levels []int) {
	t.Helper()
	if len(levels) < 2 {
		t.Fatalf("%s: need at least two parallelism levels, got %v", name, levels)
	}
	var want string
	for i, par := range levels {
		got, err := Fingerprint(build(), id, query, vars, par)
		if err != nil {
			t.Fatalf("%s: parallelism=%d: %v", name, par, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%s: output diverges between parallelism=%d and parallelism=%d:\n--- parallelism=%d ---\n%s\n--- parallelism=%d ---\n%s",
				name, levels[0], par, levels[0], want, par, got)
		}
	}
}

// Oracle answers a query posed to a peer with the paper's semantics
// over the in-memory system, with no network, slicing or cache in
// between: core.PeerConsistentAnswers (Definition 5) for direct
// queries, the combined program of Section 4.3 for transitive ones.
// Tests of peernet.Node.AnswerQuery use it as the reference answer.
func Oracle(s *core.System, id core.PeerID, q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, error) {
	if transitive {
		return program.PeerConsistentAnswersViaLP(s, id, q, vars, program.RunOptions{Transitive: true})
	}
	return core.PeerConsistentAnswers(s, id, q, vars, core.SolveOptions{})
}
