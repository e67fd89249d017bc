// Command p2pbench regenerates every experiment of the reproduction:
// the fidelity experiments E1-E7 (each concrete artifact in the paper —
// worked examples, programs, stable models) and the scaling/ablation
// benchmarks B1-B14 (the paper has no empirical tables, so these measure
// the complexity behaviour its Section 3.2 claims imply, and the cost
// of the serving paths). -list names every experiment; the expected
// fidelity lines are the ones TestAllExperimentsRun checks. -gate runs
// the benchmark regression gate (gate.go).
//
// Usage:
//
//	p2pbench                 # run everything
//	p2pbench -experiment E5  # one experiment
//	p2pbench -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
)

type experiment struct {
	id    string
	title string
	run   func(io.Writer) error
}

var experiments = []experiment{
	{"E1", "Example 1: the two solutions for P1", runE1},
	{"E2", "Example 2: FO rewriting and peer consistent answers", runE2},
	{"E3", "Section 3.1: direct specification program and its answer sets", runE3},
	{"E4", "Example 3 / Section 4.1: head-cycle-freeness and shifting", runE4},
	{"E5", "Appendix: LAV program, stable models M1-M4, solutions", runE5},
	{"E6", "Example 4: transitive case, combined program, three solutions", runE6},
	{"E7", "Section 3.2: local ICs — denial layer vs repair layer", runE7},
	{"B1", "PCA latency vs instance size (three engines)", runB1},
	{"B2", "Solutions and solve time vs independent conflicts (2^k)", runB2},
	{"B3", "Engine crossover: rewrite vs LP vs repair enumeration", runB3},
	{"B4", "HCF shift: disjunctive vs shifted-normal solving", runB4},
	{"B5", "Grounding cost vs facts", runB5},
	{"B6", "Networked PCA: transport and latency sweep", runB6},
	{"B7", "Choice keys: shared vs independent witness choices", runB7},
	{"B8", "Solver ablation: support propagation on/off", runB8},
	{"B9", "Wide universe: query-relevance slicing vs the unsliced reference", runB9},
	{"B10", "Scattered conflicts: conflict-localized vs global repair", runB10},
	{"B11", "Delegation fanout: central pull vs delegated peer answering", runB11},
	{"B12", "Large universe: columnar memory plane, repair+answer allocs", runB12},
	{"B13", "Serving plane: sustained mixed load, coalescing, write visibility", runB13},
	{"B14", "Churn: incremental re-answering vs evict-and-recompute under writes", runB14},
}

// benchParallelism is the worker-pool bound used by the parallel
// variants inside B1 and B6 (engine fan-out, networked snapshot
// fetch). Set by -parallelism; 0 means GOMAXPROCS.
var benchParallelism = 4

func main() {
	fs := flag.NewFlagSet("p2pbench", flag.ContinueOnError)
	which := fs.String("experiment", "", "experiment id (E1..E7, B1..B14); empty = all")
	list := fs.Bool("list", false, "list experiments")
	fs.IntVar(&benchParallelism, "parallelism", benchParallelism,
		"worker-pool bound for the parallel benchmark variants; 0 = GOMAXPROCS")
	stats := fs.Bool("stats", false, "print fixture system statistics (peers, tuples, per-system interned symbols) and exit")
	gateOut := fs.String("gate-out", "", "measure the benchmark gate (the eight paths of gate.go's gateMetrics) and write the result JSON to this path")
	gateBase := fs.String("gate", "", "compare the gate measurement against this baseline JSON and exit non-zero on regression")
	gateThreshold := fs.Float64("gate-threshold", 0.25, "allowed regression of the normalized gate metrics (0.25 = 25%)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run (experiments or gate) to this path")
	memProfile := fs.String("memprofile", "", "write an allocation (heap) profile taken at exit to this path")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retained, not transient, heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *gateOut != "" || *gateBase != "" {
		// The gate always measures at Parallelism 1: its calibration
		// loop is single-threaded, so that is the only level whose
		// normalized ratios are comparable across core counts (see
		// gate.go); sequential output is byte-identical to parallel.
		if err := runGate(os.Stdout, *gateOut, *gateBase, *gateThreshold, 1); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-3s %s\n", e.id, e.title)
		}
		return
	}
	if *stats {
		printFixtureStats(os.Stdout)
		return
	}
	var ids []string
	if *which == "" {
		for _, e := range experiments {
			ids = append(ids, e.id)
		}
	} else {
		ids = []string{*which}
	}
	sort.Strings(ids)
	for _, id := range ids {
		e, ok := lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "p2pbench: unknown experiment %s\n", id)
			os.Exit(1)
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := e.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "p2pbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// printFixtureStats reports, per paper fixture, the size of the
// per-system symbol table every instance of the system interns into.
func printFixtureStats(w io.Writer) {
	for _, f := range []struct {
		name string
		sys  *core.System
	}{
		{"Example1", core.Example1System()},
		{"Section31", core.Section31System()},
		{"Example4", core.Example4System()},
	} {
		fmt.Fprintf(w, "%-10s peers=%d tuples=%d symbols=%d\n",
			f.name, len(f.sys.Peers()), f.sys.Global().Size(), f.sys.Symtab().Len())
	}
}

func lookup(id string) (experiment, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}
