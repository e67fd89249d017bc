// Command p2pqa loads a P2P data exchange system (sysdsl format) and
// answers queries posed to a peer under the paper's peer-consistent
// semantics, with every engine the repository implements:
//
//	p2pqa -system sys.p2p -peer P1 -query "r1(X,Y)" -vars X,Y
//	p2pqa -system sys.p2p -peer P1 -query "r1(X,Y)" -vars X,Y -engine lp
//	p2pqa -system sys.p2p -peer P1 -solutions
//
// Engines: repair (Definition 4/5 via minimal repairs, default),
// lp (Section 3 answer set program), lav (Section 4.2 annotated
// program), rewrite (Section 2 first-order rewriting; atomic queries
// in its applicability class only). -transitive switches the lp engine
// to the combined program of Section 4.3. -delegate deploys the system
// as an in-process overlay and answers through delegated distributed
// execution (slice-aware OpPCA fan-out with centralized fallback).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/rewrite"
	"repro/internal/slice"
	"repro/internal/sysdsl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p2pqa:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("p2pqa", flag.ContinueOnError)
	sysFile := fs.String("system", "", "system description file (sysdsl format; '-' for stdin)")
	peer := fs.String("peer", "", "peer to pose the query to")
	query := fs.String("query", "", "first-order query in L(peer)")
	vars := fs.String("vars", "", "comma-separated answer variables")
	engine := fs.String("engine", "repair", "engine: repair | lp | lav | rewrite")
	transitive := fs.Bool("transitive", false, "use the transitive (Section 4.3) semantics with the lp engine")
	possible := fs.Bool("possible", false, "compute possible (brave) answers instead of peer consistent (certain) ones; repair engine only")
	solutions := fs.Bool("solutions", false, "print the peer's solutions instead of answering a query")
	showProgram := fs.Bool("program", false, "print the specification program instead of solving (lp/lav engines)")
	par := fs.Int("parallelism", 0, "worker-pool bound for the repair search and fan-out, grounding, per-solution query evaluation and stable-model search; 0 = GOMAXPROCS for the repair engine with sequential grounder/solver, 1 = fully sequential, >1 also fans out grounding and the solver search")
	stats := fs.Bool("stats", false, "print system statistics (peers, tuples, interned symbols) after loading; with -query, also the query-relevance slice statistics (relations/constraints kept vs dropped)")
	sliced := fs.Bool("sliced", false, "answer through the query-relevance-sliced pipeline (repair and lp engines): only slice constraints are enforced, only slice relations repaired/grounded; answers are identical to the unsliced run")
	delegate := fs.Bool("delegate", false, "answer through delegated distributed execution: deploy every peer as an in-process node, decompose the query's relevance slice per owning peer and let each repairing neighbour answer its sub-queries itself over OpPCA, composing at the queried node (falls back to the centralized sliced path whenever delegation is not provably exact; answers are identical either way); with -stats, the delegation report is printed")
	serveMode := fs.Bool("serve", false, "run as a long-lived query server: deploy every peer as an in-process node and serve -peer's peer-consistent answers over HTTP (/query, /write, /metrics, /healthz) until SIGINT/SIGTERM; with -stats, the final metrics are printed on shutdown")
	httpAddr := fs.String("http", "127.0.0.1:0", "HTTP listen address for -serve")
	cacheTTL := fs.Duration("cache-ttl", time.Second, "TTL of the serving node's spec/relation caches (-serve); local writes are visible immediately, remote data may be up to this stale")
	maxConcurrent := fs.Int("max-concurrent", 0, "queries admitted at once in -serve; 0 = GOMAXPROCS")
	maxQueue := fs.Int("max-queue", 0, "queries queued for admission in -serve before shedding; 0 = 4x max-concurrent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sysFile == "" || *peer == "" {
		return fmt.Errorf("-system and -peer are required")
	}
	var src []byte
	var err error
	if *sysFile == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*sysFile)
	}
	if err != nil {
		return err
	}
	sys, err := sysdsl.Parse(string(src))
	if err != nil {
		return err
	}
	id := core.PeerID(*peer)

	if *stats {
		// The parser built every peer instance onto one per-system
		// symbol table; its size is the number of distinct constants
		// (plus relation symbols) in the whole system.
		fmt.Fprintf(out, "system: %d peer(s), %d tuple(s), %d interned symbol(s)\n",
			len(sys.Peers()), sys.Global().Size(), sys.Symtab().Len())
	}

	if *showProgram {
		var p fmt.Stringer
		switch *engine {
		case "lav":
			p, _, err = program.BuildLAV(sys, id)
		default:
			if *transitive {
				p, _, err = program.BuildTransitive(sys, id)
			} else {
				p, _, err = program.BuildDirect(sys, id)
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprint(out, p.String())
		return nil
	}

	if *solutions {
		var sols []*relation.Instance
		switch *engine {
		case "repair":
			sols, err = core.SolutionsFor(sys, id, core.SolveOptions{Parallelism: *par})
		case "lp":
			sols, err = program.SolutionsViaLP(sys, id, program.RunOptions{Transitive: *transitive, Parallelism: *par})
		case "lav":
			sols, err = program.SolutionsViaLAV(sys, id, program.RunOptions{Parallelism: *par})
		default:
			return fmt.Errorf("engine %q cannot enumerate solutions", *engine)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d solution(s) for peer %s:\n", len(sols), id)
		for i, s := range sols {
			fmt.Fprintf(out, "S%d = %s\n", i+1, s)
		}
		return nil
	}

	if *serveMode {
		return runServe(sys, id, out, serveParams{
			httpAddr:      *httpAddr,
			cacheTTL:      *cacheTTL,
			parallelism:   *par,
			maxConcurrent: *maxConcurrent,
			maxQueue:      *maxQueue,
			transitive:    *transitive,
			stats:         *stats,
		})
	}

	if *query == "" || *vars == "" {
		return fmt.Errorf("-query and -vars are required (or use -solutions)")
	}
	varList := strings.Split(*vars, ",")
	for i := range varList {
		varList[i] = strings.TrimSpace(varList[i])
	}

	if *delegate {
		f, perr := foquery.Parse(*query)
		if perr != nil {
			return perr
		}
		ans, info, err := delegatedAnswers(sys, id, f, varList, *transitive, *par)
		if err != nil {
			return err
		}
		if *stats {
			if info.Delegated {
				fmt.Fprintf(out, "delegation: delegated; delegates=%v fetches=%v remote calls=%d sub-tuples=%d\n",
					info.Delegates, info.Fetches, info.RemoteCalls, info.SubTuples)
			} else {
				fmt.Fprintf(out, "delegation: fell back to the centralized sliced path: %s\n", info.Reason)
			}
		}
		fmt.Fprintf(out, "%d peer consistent answer(s):\n", len(ans))
		for _, t := range ans {
			fmt.Fprintln(out, t)
		}
		return nil
	}

	// Query-relevance slicing: compute the slice when the sliced
	// pipeline is requested, or when -stats wants its statistics.
	var sl *slice.Slice
	if (*sliced || *stats) && (*engine == "repair" || *engine == "lp") {
		f, perr := foquery.Parse(*query)
		if perr != nil {
			return perr
		}
		sl, err = slice.ForQuery(sys, id, f, *transitive)
		if err != nil {
			return err
		}
	}
	solveOpt := core.SolveOptions{Parallelism: *par}
	runOpt := program.RunOptions{Transitive: *transitive, Parallelism: *par}
	var pruneStats ground.PruneStats
	if *sliced && sl != nil {
		solveOpt.KeepDep, solveOpt.RelevantRels = sl.KeepDep, sl.RelevantRels()
		runOpt.KeepDep, runOpt.RelevantRels = sl.KeepDep, sl.RelevantRels()
		runOpt.PruneStats = &pruneStats
	}

	var ans []relation.Tuple
	switch *engine {
	case "repair":
		f, perr := foquery.Parse(*query)
		if perr != nil {
			return perr
		}
		if *possible {
			ans, err = core.PossibleAnswers(sys, id, f, varList, solveOpt)
		} else {
			ans, err = core.PeerConsistentAnswers(sys, id, f, varList, solveOpt)
		}
	case "lp":
		f, perr := foquery.Parse(*query)
		if perr != nil {
			return perr
		}
		ans, err = program.PeerConsistentAnswersViaLP(sys, id, f, varList, runOpt)
	case "lav":
		f, perr := foquery.Parse(*query)
		if perr != nil {
			return perr
		}
		ans, err = lavAnswers(sys, id, f, varList, *par)
	case "rewrite":
		rel, rerr := atomicQueryRel(*query, varList)
		if rerr != nil {
			return rerr
		}
		var f foquery.Formula
		f, err = rewrite.RewriteAtom(sys, id, rel, varList, rewrite.Options{})
		if err == nil {
			fmt.Fprintf(out, "rewritten query: %s\n", f)
			ans, err = foquery.Answers(sys.Global(), f, varList)
		}
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
	if err != nil {
		return err
	}
	if *stats && sl != nil {
		fmt.Fprintf(out, "slice: relations %d/%d (%d dropped), constraints kept %d/%d (%d dropped), remote relations %d, full=%v\n",
			len(sl.Rels), sl.TotalRels, sl.TotalRels-len(sl.Rels),
			sl.KeptDeps, sl.TotalDeps, sl.TotalDeps-sl.KeptDeps,
			sl.RemoteRelCount(), sl.Full)
		if *engine == "lp" {
			if kept, total, lerr := lpRuleCounts(sys, id, *transitive, sl); lerr == nil {
				fmt.Fprintf(out, "slice: lp rules kept %d/%d (%d dropped)\n", kept, total, total-kept)
			}
		}
		if *sliced && runOpt.PruneStats != nil && *engine == "lp" {
			fmt.Fprintf(out, "slice: ground rules kept %d (%d pruned)\n", pruneStats.KeptRules, pruneStats.DroppedRules)
		}
	}
	kind := "peer consistent"
	if *possible {
		kind = "possible"
	}
	fmt.Fprintf(out, "%d %s answer(s):\n", len(ans), kind)
	for _, t := range ans {
		fmt.Fprintln(out, t)
	}
	return nil
}

// delegatedAnswers deploys every peer of the system as a node on an
// in-process transport (full neighbour mesh) and answers through the
// queried peer's delegated distributed path.
func delegatedAnswers(sys *core.System, id core.PeerID, q foquery.Formula, vars []string, transitive bool, par int) ([]relation.Tuple, peernet.DelegationInfo, error) {
	var info peernet.DelegationInfo
	if _, ok := sys.Peer(id); !ok {
		return nil, info, fmt.Errorf("unknown peer %s", id)
	}
	nodes, stop, err := peernet.Deploy(sys, peernet.NewInProc())
	if err != nil {
		return nil, info, err
	}
	defer stop()
	for _, n := range nodes {
		n.Parallelism = par
	}
	ans, err := nodes[id].AnswerQuery(q, vars, peernet.QueryOptions{Transitive: transitive, Delegate: true, Delegation: &info})
	return ans, info, err
}

// lpRuleCounts compares the sliced specification program against the
// full one (rules kept vs total) for the -stats report.
func lpRuleCounts(sys *core.System, id core.PeerID, transitive bool, sl *slice.Slice) (kept, total int, err error) {
	ruleCount := func(opt program.BuildOptions) (int, error) {
		var p *lp.Program
		var e error
		if transitive {
			p, _, e = program.BuildTransitiveOpt(sys, id, opt)
		} else {
			p, _, e = program.BuildDirectOpt(sys, id, opt)
		}
		if e != nil {
			return 0, e
		}
		return len(p.Rules), nil
	}
	if total, err = ruleCount(program.BuildOptions{}); err != nil {
		return 0, 0, err
	}
	if kept, err = ruleCount(program.BuildOptions{KeepDep: sl.KeepDep, RelevantRels: sl.RelevantRels()}); err != nil {
		return 0, 0, err
	}
	return kept, total, nil
}

// lavAnswers computes peer consistent answers through the LAV program
// of Section 4.2: solutions from the tss projections, restricted to the
// peer's schema, intersected.
func lavAnswers(sys *core.System, id core.PeerID, q foquery.Formula, vars []string, par int) ([]relation.Tuple, error) {
	p, ok := sys.Peer(id)
	if !ok {
		return nil, fmt.Errorf("unknown peer %s", id)
	}
	sols, err := program.SolutionsViaLAV(sys, id, program.RunOptions{Parallelism: par})
	if err != nil {
		return nil, err
	}
	if len(sols) == 0 {
		return nil, core.ErrNoSolutions
	}
	restricted := make([]*relation.Instance, len(sols))
	for i, s := range sols {
		restricted[i] = s.Restrict(p.Schema)
	}
	return repair.IntersectAnswersOpt(restricted, q, vars, repair.Options{Parallelism: par})
}

// atomicQueryRel extracts the relation of an atomic query rel(V1,...).
func atomicQueryRel(q string, vars []string) (string, error) {
	f, err := foquery.Parse(q)
	if err != nil {
		return "", err
	}
	a, ok := f.(foquery.Atom)
	if !ok {
		return "", fmt.Errorf("the rewrite engine requires an atomic query, got %s", f)
	}
	if len(a.A.Args) != len(vars) {
		return "", fmt.Errorf("query arity %d does not match %d answer variables", len(a.A.Args), len(vars))
	}
	return a.A.Pred, nil
}
