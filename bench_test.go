// Package repro's root benchmarks: one testing.B benchmark per
// experiment of cmd/p2pbench (p2pbench -list names them; E-series
// fidelity checks appear as correctness-verifying benchmarks, whose
// expected fidelity lines TestAllExperimentsRun in cmd/p2pbench checks;
// B-series scaling rows as parameter sweeps via sub-benchmarks).
// Regenerate everything with
//
//	go test -bench=. -benchmem
//
// or through cmd/p2pbench, which prints the same series as tables.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/lp/solve"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/rewrite"
	"repro/internal/slice"
	"repro/internal/workload"
)

// BenchmarkE1SolutionsExample1 regenerates Example 1's two solutions.
func BenchmarkE1SolutionsExample1(b *testing.B) {
	s := core.Example1System()
	for i := 0; i < b.N; i++ {
		sols, err := core.SolutionsFor(s, "P1", core.SolveOptions{})
		if err != nil || len(sols) != 2 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE2PCA regenerates Example 2's peer consistent answers, per
// engine.
func BenchmarkE2PCA(b *testing.B) {
	s := core.Example1System()
	q := foquery.MustParse("r1(X,Y)")
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{})
			if err != nil || len(ans) != 3 {
				b.Fatalf("%v %v", ans, err)
			}
		}
	})
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := program.PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, program.RunOptions{})
			if err != nil || len(ans) != 3 {
				b.Fatalf("%v %v", ans, err)
			}
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := rewrite.PCAByRewriting(s, "P1", "r1", []string{"X", "Y"}, rewrite.Options{})
			if err != nil || len(ans) != 3 {
				b.Fatalf("%v %v", ans, err)
			}
		}
	})
}

// BenchmarkE3DirectProgram regenerates the Section 3.1 answer sets.
func BenchmarkE3DirectProgram(b *testing.B) {
	s := core.Section31System()
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{})
		if err != nil || len(sols) != 3 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE4Shift regenerates the Example 3 shift equivalence.
func BenchmarkE4Shift(b *testing.B) {
	s := core.Section31System()
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{UseShift: true})
		if err != nil || len(sols) != 3 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE5LAV regenerates the appendix stable models.
func BenchmarkE5LAV(b *testing.B) {
	s := core.Section31System()
	prog, _, err := program.BuildLAV(s, "P")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		models, err := program.Solve(prog, program.RunOptions{})
		if err != nil || len(models) != 4 {
			b.Fatalf("models = %d, %v", len(models), err)
		}
	}
}

// BenchmarkE6Transitive regenerates Example 4's combined program run.
func BenchmarkE6Transitive(b *testing.B) {
	s := core.Example4System()
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{Transitive: true})
		if err != nil || len(sols) != 3 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE7LocalIC regenerates the local-IC pruning experiment.
func BenchmarkE7LocalIC(b *testing.B) {
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		Fact("r1", "a", "b").Fact("r2", "a", "g").
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2")).
		AddIC(constraint.FD("fd_r2", "r2"))
	q := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2).
		Fact("s1", "c", "b").Fact("s2", "c", "e").Fact("s2", "c", "f")
	s := core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{})
		if err != nil || len(sols) != 1 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkB1PCAVsSize sweeps instance size per engine.
func BenchmarkB1PCAVsSize(b *testing.B) {
	for _, n := range []int{5, 10, 20, 40} {
		s := workload.Example1Shaped(n, 3, 2, 1)
		q := foquery.MustParse("r1(X,Y)")
		b.Run(fmt.Sprintf("rewrite/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.PCAByRewriting(s, "P1", "r1", []string{"X", "Y"}, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := program.PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, program.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("repair/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB1PCAVsSizeParallel is the parallel variant of B1: the
// repair engine at Parallelism 1 vs 4 vs GOMAXPROCS on the largest B1
// workload. On multi-core, par=4 tracks the sequential time divided by
// min(4, cores); par=1 is the byte-identical sequential baseline.
func BenchmarkB1PCAVsSizeParallel(b *testing.B) {
	for _, n := range []int{20, 40} {
		s := workload.Example1Shaped(n, 3, 2, 1)
		q := foquery.MustParse("r1(X,Y)")
		for _, par := range []int{1, 4, 0} {
			name := fmt.Sprintf("repair/par=%d/n=%d", par, n)
			if par == 0 {
				name = fmt.Sprintf("repair/par=max/n=%d", n)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkB2ConflictBlowup sweeps the number of independent conflicts.
func BenchmarkB2ConflictBlowup(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		s := workload.IndependentConflicts(k)
		b.Run(fmt.Sprintf("lp/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sols, err := program.SolutionsViaLP(s, "A", program.RunOptions{})
				if err != nil || len(sols) != 1<<k {
					b.Fatalf("solutions = %d, %v", len(sols), err)
				}
			}
		})
		b.Run(fmt.Sprintf("repair/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sols, err := core.SolutionsFor(s, "A", core.SolveOptions{})
				if err != nil || len(sols) != 1<<k {
					b.Fatalf("solutions = %d, %v", len(sols), err)
				}
			}
		})
	}
}

// BenchmarkB3Crossover sweeps conflicts at fixed size across engines.
func BenchmarkB3Crossover(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		s := workload.Example1Shaped(10, 2, k, 1)
		q := foquery.MustParse("r1(X,Y)")
		b.Run(fmt.Sprintf("rewrite/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.PCAByRewriting(s, "P1", "r1", []string{"X", "Y"}, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lp/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := program.PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, program.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB4ShiftAblation compares disjunctive and shifted solving.
func BenchmarkB4ShiftAblation(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		s := workload.IndependentConflicts(k)
		g := groundProgram(b, s, "A")
		b.Run(fmt.Sprintf("disjunctive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solve.StableModels(g, solve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		sh, err := solve.Shift(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shifted/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solve.StableModels(sh, solve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB5Grounding sweeps fact counts through the grounder.
func BenchmarkB5Grounding(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100} {
		s := workload.ReferentialShaped(1, 2, n, 1)
		prog, _, err := program.BuildDirect(s, "P")
		if err != nil {
			b.Fatal(err)
		}
		unfolded, err := lp.UnfoldChoice(prog)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ground.Ground(unfolded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB6Network measures networked PCA per transport/latency.
func BenchmarkB6Network(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		latency time.Duration
	}{{"latency=0", 0}, {"latency=1ms", time.Millisecond}} {
		tr := peernet.NewInProc()
		tr.Latency = cfg.latency
		p1 := deployB6(b, tr, 0, 0)
		b.Run(cfg.name, func(b *testing.B) { runB6(b, p1) })
	}
}

// deployB6 deploys Example 1 on tr and returns the P1 node with the
// given fan-out parallelism and cache TTL.
func deployB6(b *testing.B, tr peernet.Transport, parallelism int, ttl time.Duration) *peernet.Node {
	nodes, stop, err := peernet.Deploy(core.Example1System(), tr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	p1 := nodes["P1"]
	p1.Parallelism = parallelism
	p1.CacheTTL = ttl
	return p1
}

// runB6 answers r1(X,Y) at P1 b.N times.
func runB6(b *testing.B, p1 *peernet.Node) {
	q := foquery.MustParse("r1(X,Y)")
	for i := 0; i < b.N; i++ {
		ans, err := p1.AnswerQuery(q, []string{"X", "Y"}, peernet.QueryOptions{})
		if err != nil || len(ans) != 3 {
			b.Fatalf("%v %v", ans, err)
		}
	}
}

// BenchmarkB6NetworkParallel is the parallel variant of B6: networked
// PCA at 1ms link latency with sequential fan-out, 4-way concurrent
// fan-out, and warm TTL spec/relation caches. The fan-out win is
// latency-bound, so it shows even on a single core.
func BenchmarkB6NetworkParallel(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		parallelism int
		cacheTTL    time.Duration
	}{
		{"fanout=seq", 1, 0},
		{"fanout=par4", 4, 0},
		{"cache=warm", 1, time.Hour},
	} {
		tr := peernet.NewInProc()
		tr.Latency = time.Millisecond
		p1 := deployB6(b, tr, cfg.parallelism, cfg.cacheTTL)
		b.Run(cfg.name, func(b *testing.B) { runB6(b, p1) })
	}
}

// BenchmarkWarmHit measures a repeated query over unchanged data at P0
// of Chain(4,50) with warm TTL caches (run with -benchmem). The
// transitive row is a warm-hit probe: the answer key is rebuilt from the
// memoized slice, the root's relation hashes and the cached relations,
// with no snapshot. The direct row is answered by its incremental
// series, which the probe leaves alone.
func BenchmarkWarmHit(b *testing.B) {
	nodes, stop, err := peernet.Deploy(workload.Chain(4, 50, 1), peernet.NewInProc())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	root := nodes["P0"]
	root.CacheTTL = time.Hour
	q := foquery.MustParse("t0(X,Y)")
	vars := []string{"X", "Y"}
	for _, transitive := range []bool{false, true} {
		name, opt := "direct", peernet.QueryOptions{Transitive: transitive}
		if transitive {
			name = "transitive"
		}
		b.Run(name, func(b *testing.B) {
			// The first answer solves, the first repeat hashes the
			// cached relations once.
			for i := 0; i < 2; i++ {
				if _, err := root.AnswerQuery(q, vars, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := root.AnswerQuery(q, vars, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChainDirect answers t0(X,Y) at P0 of Chain(4,50) at
// Parallelism 1, once through the repair engine (direct semantics) and
// once through the LP route with the transitive program. At P0 every
// import from P1 is forced, so the repair row's search is one long
// sequence of inserting actions, each re-checked by the delta kernel
// (constraint.ViolationsDelta).
func BenchmarkChainDirect(b *testing.B) {
	s := workload.Chain(4, 50, 1)
	q := foquery.MustParse("t0(X,Y)")
	vars := []string{"X", "Y"}
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PeerConsistentAnswers(s, "P0", q, vars, core.SolveOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := program.PeerConsistentAnswersViaLP(s, "P0", q, vars, program.RunOptions{Parallelism: 1, Transitive: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSameTrustSolve answers ra0(X,Y) at A of the sliced
// ChurnUniverse(4,50) at Parallelism 1: the remote-fresh solve. A has
// same-trust DECs only, so its solutions are the repairs of one
// problem, which the conflict-localized engine splits into one
// component per conflict and returns in canonical order.
func BenchmarkSameTrustSolve(b *testing.B) {
	s := workload.ChurnUniverse(4, 50, 1)
	q := foquery.MustParse("ra0(X,Y)")
	sl, err := slice.ForQuery(s, "A", q, false)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.SolveOptions{Parallelism: 1, KeepDep: sl.KeepDep, RelevantRels: sl.RelevantRels()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.PeerConsistentAnswers(s, "A", q, []string{"X", "Y"}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkB7ChoiceUnfolding measures the choice-unfolding pipeline.
func BenchmarkB7ChoiceUnfolding(b *testing.B) {
	for _, v := range []int{1, 3, 5} {
		s := workload.ReferentialShaped(v, 2, 0, 1)
		prog, _, err := program.BuildDirect(s, "P")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("violations=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := lp.UnfoldChoice(prog)
				if err != nil {
					b.Fatal(err)
				}
				g, err := ground.Ground(u)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := solve.StableModels(g, solve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB8SupportPropagation ablates the solver's support pruning.
func BenchmarkB8SupportPropagation(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		s := workload.IndependentConflicts(k)
		g := groundProgram(b, s, "A")
		b.Run(fmt.Sprintf("with/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solve.StableModels(g, solve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("without/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solve.StableModels(g, solve.Options{NoSupportPropagation: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func groundProgram(b *testing.B, s *core.System, id core.PeerID) *ground.Program {
	b.Helper()
	prog, _, err := program.BuildDirect(s, id)
	if err != nil {
		b.Fatal(err)
	}
	unfolded, err := lp.UnfoldChoice(prog)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ground.Ground(unfolded)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkB9WideUniverseSlicing contrasts full against sliced
// answering on the wide-universe workload (tiny query-relevant core,
// wide bystander overlay), in-process: the sliced variant computes the
// relevance slice and answers with slice-restricted options.
func BenchmarkB9WideUniverseSlicing(b *testing.B) {
	s := workload.WideUniverse(8, 3, 40, 2, 1)
	q := foquery.MustParse("q0(X,Y)")
	vars := []string{"X", "Y"}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PeerConsistentAnswers(s, "P0", q, vars, core.SolveOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sl, err := slice.ForQuery(s, "P0", q, false)
			if err != nil {
				b.Fatal(err)
			}
			_, err = core.PeerConsistentAnswers(s, "P0", q, vars, core.SolveOptions{
				Parallelism:  1,
				KeepDep:      sl.KeepDep,
				RelevantRels: sl.RelevantRels(),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkB10ScatteredConflicts contrasts the global wave search
// against the conflict-localized engine on k independent conflicts
// scattered over disjoint relation pairs: consistent answering of a
// single-relation query (per-component evaluation, no cross-product
// materialization) and solution enumeration (composed cross-product).
func BenchmarkB10ScatteredConflicts(b *testing.B) {
	const k = 8
	s := workload.ScatteredConflicts(k, 20, 1)
	p, _ := s.Peer("A")
	deps := p.DECs["B"]
	inst := s.Global()
	q := foquery.MustParse("ra0(X,Y)")
	vars := []string{"X", "Y"}
	b.Run("cqa-global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.ConsistentAnswers(inst.Clone(), deps, q, vars, repair.Options{NoLocalize: true, Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cqa-localized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.ConsistentAnswers(inst.Clone(), deps, q, vars, repair.Options{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve-global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolutionsFor(s, "A", core.SolveOptions{NoLocalize: true, Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve-localized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolutionsFor(s, "A", core.SolveOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkB12LargeUniverse measures the repair+answer hot path over a
// 10^5-fact universe (workload.LargeUniverse): a selective query on the
// conflicted core relation, answered through the conflict-localized
// repair engine over the full (unsliced) instance. Run with -benchmem:
// the allocs/op figure is the columnar-memory-plane acceptance metric —
// per-candidate instance clones dominate, so storage that clones by
// copy-on-write segment sharing instead of per-tuple map copying drops
// it by orders of magnitude.
func BenchmarkB12LargeUniverse(b *testing.B) {
	s := workload.LargeUniverse(100000, 4, 4, 2500, 1)
	p, _ := s.Peer("P0")
	deps := p.DECs["PK"]
	inst := s.Global()
	q := foquery.MustParse("q0(c0,Y)")
	vars := []string{"Y"}
	b.Run("repair-answer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repair.ConsistentAnswers(inst.Clone(), deps, q, vars, repair.Options{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst.Clone()
		}
	})
}
