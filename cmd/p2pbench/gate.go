package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/slice"
	"repro/internal/workload"
)

// The benchmark regression gate measures the two tentpole hot paths —
// B5 grounding (facts=100) and B1 repair (n=40) — and compares them
// against a checked-in baseline (bench/BENCH_baseline.json). Raw times
// are not portable across machines, so the gate also measures a fixed
// CPU-bound calibration loop in the same process and gates on the
// *normalized* ratios time(bench)/time(calibration): a machine that is
// uniformly 2x slower scores the same, while a regression in the
// measured path moves the ratio. The calibration loop is
// single-threaded, so the gate measurements run at Parallelism 1 —
// otherwise the normalization would depend on the runner's core count;
// sequential output is byte-identical to parallel, so a sequential
// regression is an engine regression. Comparing measurements taken at
// different parallelism levels is rejected as incomparable. Every
// measurement is the minimum of gateRounds runs, which is far more
// stable than a mean under CI noise.

// gateRounds is how many measurement blocks run per metric; the
// minimum block is kept. gateBlockReps is how many back-to-back
// repetitions one block times as a unit: amortizing over a block keeps
// the garbage-collection cost of the measured path inside the
// measurement (a single isolated run can dodge collection entirely,
// which would flatter allocation-heavy code), while the min over
// blocks rejects co-tenant noise spikes. gateB12Reps is the block size
// of the large-universe metric: one B12 run is five orders of
// magnitude bigger than the other metrics and garbage-collects many
// times internally, so two repetitions amortize enough and keep the
// gate's wall time bounded.
const (
	gateRounds    = 5
	gateBlockReps = 20
	gateB12Reps   = 2
	// gateB14Reps: one B14 block replays a full reversible churn pass
	// (dozens of write+patched-query pairs), so two repetitions
	// amortize GC while keeping the gate's wall time bounded.
	gateB14Reps = 2
)

// gateResult is the BENCH_*.json schema.
type gateResult struct {
	// Parallelism is the -parallelism the measurements ran at.
	Parallelism int `json:"parallelism"`
	// CalibNS is the calibration loop time (minimum over rounds).
	CalibNS int64 `json:"calib_ns"`
	// B5GroundNS is B5 grounding at facts=100 (minimum over rounds).
	B5GroundNS int64 `json:"b5_ground_facts100_ns"`
	// B1RepairNS is B1 repair-engine PCA at n=40 (minimum over rounds).
	B1RepairNS int64 `json:"b1_repair_n40_ns"`
	// B9SlicedNS is the B9 wide-universe sliced PCA — slice computation
	// plus the slice-restricted repair-engine answering, no network
	// (minimum over rounds).
	B9SlicedNS int64 `json:"b9_sliced_wide_ns"`
	// B10LocalNS is the B10 scattered-conflict consistent-answering pass
	// under the conflict-localized repair engine, k=8 (minimum over
	// rounds).
	B10LocalNS int64 `json:"b10_localized_scatter_ns"`
	// B11DelegNS is the B11 delegated answering pass on the delegation
	// fanout workload over a zero-latency in-process overlay (minimum
	// over rounds): the plan + fan-out + composition hot path, no
	// network delay.
	B11DelegNS int64 `json:"b11_delegated_fanout_ns"`
	// B12LargeNS is the B12 large-universe repair+answer pass — CQA over
	// the columnar memory plane at 20k core facts (minimum over rounds).
	B12LargeNS int64 `json:"b12_large_universe_ns"`
	// B13ServeNS is the B13 serving-plane pass: one sequential client
	// replaying the mixed read/write stream through a serve.Server over
	// a warm in-process overlay — admission, snapshot/fingerprint/cache
	// bookkeeping and the write path (minimum over rounds).
	B13ServeNS int64 `json:"b13_serve_stream_ns"`
	// B14ChurnNS is the B14 incremental-maintenance pass: a reversible
	// churn loop (single relevant write, then the hot query answered by
	// patching the live series) over a warm ChurnUniverse overlay
	// (minimum over rounds).
	B14ChurnNS int64 `json:"b14_churn_incr_ns"`
	// B5Norm..B12Norm are the machine-independent gate metrics: bench
	// time divided by calibration time.
	B5Norm  float64 `json:"b5_norm"`
	B1Norm  float64 `json:"b1_norm"`
	B9Norm  float64 `json:"b9_norm"`
	B10Norm float64 `json:"b10_norm"`
	B11Norm float64 `json:"b11_norm"`
	B12Norm float64 `json:"b12_norm"`
	B13Norm float64 `json:"b13_norm"`
	B14Norm float64 `json:"b14_norm"`
	// *AllocsOp are the per-run heap allocation counts of the same
	// measured paths (minimum over rounds). Allocation counts are
	// machine-independent — no calibration needed — and far more stable
	// than times, so they catch allocation regressions (a dropped buffer
	// reuse, a map rebuilt per candidate) that time-based gating under
	// CI noise would let through.
	B5AllocsOp  int64 `json:"b5_ground_facts100_allocs_op"`
	B1AllocsOp  int64 `json:"b1_repair_n40_allocs_op"`
	B9AllocsOp  int64 `json:"b9_sliced_wide_allocs_op"`
	B10AllocsOp int64 `json:"b10_localized_scatter_allocs_op"`
	B11AllocsOp int64 `json:"b11_delegated_fanout_allocs_op"`
	B12AllocsOp int64 `json:"b12_large_universe_allocs_op"`
	B13AllocsOp int64 `json:"b13_serve_stream_allocs_op"`
	B14AllocsOp int64 `json:"b14_churn_incr_allocs_op"`
	// PeakRSSKB is the process's peak resident set size (KB) after all
	// measurements, as reported by the OS (0 where unsupported).
	// Recorded for trend inspection, not gated: RSS folds in the Go
	// heap target, fixture construction and the runner's page cache
	// behaviour, which vary across environments.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// calibrate runs a fixed workload with the same resource profile as
// the engines under test — string rendering, map building and probing,
// slice sorting, allocation — but none of their code. Matching the
// profile matters: a pure register-resident loop would not slow down
// when the machine's memory subsystem is contended, so normalizing
// memory-bound engine times by it would swing with ambient load
// instead of cancelling it.
func calibrate() error {
	const n = 4096
	keys := make([]string, 0, n)
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("cal(%d,%d)", i%64, i)
		keys = append(keys, k)
		m[k] = i
	}
	sort.Strings(keys)
	h := 0
	for _, k := range keys {
		h += m[k]
	}
	if h < 0 { // keep the workload observable
		fmt.Fprintln(io.Discard, h)
	}
	return nil
}

// minOver returns the minimum per-repetition duration and heap
// allocation count over n blocks of reps back-to-back runs of f. A GC
// runs before each block so one block's leftover garbage is not billed
// to the next; within a block the measured path pays for its own
// allocations. Durations and allocation counts take their minima
// independently: the minimum allocation block is the run least
// polluted by background goroutines, and the measured path's own
// allocations are identical across blocks.
func minOver(n, reps int, f func() error) (time.Duration, int64, error) {
	var best time.Duration
	var bestAllocs int64
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startMallocs := ms.Mallocs
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if err := f(); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(start) / time.Duration(reps)
		runtime.ReadMemStats(&ms)
		allocs := int64(ms.Mallocs-startMallocs) / int64(reps)
		if i == 0 || d < best {
			best = d
		}
		if i == 0 || allocs < bestAllocs {
			bestAllocs = allocs
		}
	}
	return best, bestAllocs, nil
}

// runGateMeasure produces the gate measurements at the given
// parallelism.
func runGateMeasure(par int) (*gateResult, error) {
	calib, _, err := minOver(gateRounds, gateBlockReps, calibrate)
	if err != nil {
		return nil, err
	}

	// B5 grounding, facts=100: program built once, grounding timed.
	s5 := workload.ReferentialShaped(1, 2, 100, 1)
	prog, _, err := program.BuildDirect(s5, "P")
	if err != nil {
		return nil, err
	}
	unfolded, err := lp.UnfoldChoice(prog)
	if err != nil {
		return nil, err
	}
	b5, b5Allocs, err := minOver(gateRounds, gateBlockReps, func() error {
		_, e := ground.GroundOpt(unfolded, ground.Options{Parallelism: par})
		return e
	})
	if err != nil {
		return nil, err
	}

	// B1 repair-engine PCA, n=40.
	s1 := workload.Example1Shaped(40, 3, 2, 1)
	q := foquery.MustParse("r1(X,Y)")
	b1, b1Allocs, err := minOver(gateRounds, gateBlockReps, func() error {
		_, e := core.PeerConsistentAnswers(s1, "P1", q, []string{"X", "Y"}, core.SolveOptions{Parallelism: par})
		return e
	})
	if err != nil {
		return nil, err
	}

	// B9 sliced wide-universe PCA: slice computation plus the
	// slice-restricted answering over the in-process system (the
	// network-independent cost of the sliced pipeline).
	s9 := workload.WideUniverse(8, 3, 40, 2, 1)
	q9 := foquery.MustParse("q0(X,Y)")
	b9, b9Allocs, err := minOver(gateRounds, gateBlockReps, func() error {
		sl, e := slice.ForQuery(s9, "P0", q9, false)
		if e != nil {
			return e
		}
		_, e = core.PeerConsistentAnswers(s9, "P0", q9, []string{"X", "Y"}, core.SolveOptions{
			Parallelism:  par,
			KeepDep:      sl.KeepDep,
			RelevantRels: sl.RelevantRels(),
		})
		return e
	})
	if err != nil {
		return nil, err
	}

	// B10 localized scattered-conflict CQA, k=8: conflict-graph
	// decomposition, per-component searches and the single-component
	// answer intersection (the localized hot path end to end).
	s10 := workload.ScatteredConflicts(8, 20, 1)
	p10, _ := s10.Peer("A")
	deps10 := p10.DECs["B"]
	inst10 := s10.Global()
	q10 := foquery.MustParse("ra0(X,Y)")
	b10, b10Allocs, err := minOver(gateRounds, gateBlockReps, func() error {
		_, e := repair.ConsistentAnswers(inst10.Clone(), deps10, q10, []string{"X", "Y"}, repair.Options{Parallelism: par})
		return e
	})
	if err != nil {
		return nil, err
	}

	// B11 delegated answering on the fanout workload over a zero-latency
	// in-process overlay: spec snapshot, delegation plan, OpPCA fan-out
	// and the composed solve (the delegated hot path without network
	// delay). The overlay is deployed once; the measured path includes
	// the delegates serving their (slice-keyed, warm after the first
	// round) answer caches, matching a long-lived node's steady state.
	nodes11, stop11, err := peernet.Deploy(workload.DelegationFanout(3, 20, 4, 40, 1), peernet.NewInProc())
	if err != nil {
		return nil, err
	}
	defer stop11()
	for _, n := range nodes11 {
		n.Parallelism = par
	}
	q11 := foquery.MustParse("r0(X,Y)")
	b11, b11Allocs, err := minOver(gateRounds, gateBlockReps, func() error {
		var info peernet.DelegationInfo
		_, e := nodes11["P0"].AnswerQuery(q11, []string{"X", "Y"},
			peernet.QueryOptions{Transitive: true, Delegate: true, Delegation: &info})
		if e == nil && !info.Delegated {
			return fmt.Errorf("B11 gate workload should delegate, fell back: %s", info.Reason)
		}
		return e
	})
	if err != nil {
		return nil, err
	}

	// B12 large-universe repair+answer: CQA over the columnar memory
	// plane at 20k core facts plus bulk bystander relations — the
	// million-tuple-universe hot path at a gate-friendly scale. The
	// per-op clone is COW (shared column segments), so the measured
	// path is the repair search and answer intersection, not setup.
	s12 := workload.LargeUniverse(20000, 4, 4, 500, 1)
	inst12 := s12.Global()
	p12, _ := s12.Peer("P0")
	deps12 := p12.DECs["PK"]
	q12 := foquery.MustParse("q0(c0,Y)")
	b12, b12Allocs, err := minOver(gateRounds, gateB12Reps, func() error {
		_, e := repair.ConsistentAnswers(inst12.Clone(), deps12, q12, []string{"Y"}, repair.Options{Parallelism: par})
		return e
	})
	if err != nil {
		return nil, err
	}

	// B13 serving plane: one sequential client replays the mixed
	// read/write stream of the sustained-throughput benchmark through a
	// serve.Server over a warm in-process overlay — the admission path,
	// the snapshot/fingerprint/answer-cache bookkeeping of AnswerQuery
	// and the UpdateLocal write path. The stream's writes re-insert the
	// same facts on every replay (idempotent keys), so after the first
	// pass the fingerprints are stable and the minimum block measures
	// the warm steady state.
	nodes13, stop13, err := peernet.Deploy(workload.WideUniverse(4, 2, 12, 1, 1), peernet.NewInProc())
	if err != nil {
		return nil, err
	}
	defer stop13()
	for _, n := range nodes13 {
		n.Parallelism = par
	}
	nodes13["P0"].CacheTTL = time.Hour
	srv13 := serve.New(nodes13["P0"], serve.Config{MaxConcurrent: 1, QueryParallelism: par})
	stream13 := workload.MixedStream(4, 2, 60, 6, 1)
	parsed13 := map[string]foquery.Formula{}
	for _, op := range stream13 {
		if !op.Write {
			if _, ok := parsed13[op.Query]; !ok {
				parsed13[op.Query] = foquery.MustParse(op.Query)
			}
		}
	}
	b13, b13Allocs, err := minOver(gateRounds, gateBlockReps, func() error {
		for _, op := range stream13 {
			if op.Write {
				if op.Peer == "P0" {
					if e := srv13.Write(op.Rel, op.Tuple); e != nil {
						return e
					}
					continue
				}
				nodes13[op.Peer].UpdateLocal(func(p *core.Peer) {
					p.Inst.Insert(op.Rel, relation.Tuple(op.Tuple))
				})
				continue
			}
			if _, e := srv13.Answer(parsed13[op.Query], op.Vars, false); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// B14 incremental maintenance: a reversible churn loop over a warm
	// ChurnUniverse deployment — every iteration lands one relevant
	// single-fact write (the ra0 slice fingerprint moves) and re-asks
	// the hot query, which the incremental layer answers by patching
	// its live series instead of recomputing. The second half deletes
	// the same facts, so every block starts from identical data and the
	// journal delta never outruns its buffer.
	d14, err := newChurnDeployment(6, 120, 1, false)
	if err != nil {
		return nil, err
	}
	defer d14.stop()
	for _, n := range d14.nodes {
		n.Parallelism = par
	}
	q14 := foquery.MustParse("ra0(X,Y)")
	vars14 := []string{"X", "Y"}
	if _, err := d14.root.AnswerQuery(q14, vars14, peernet.QueryOptions{}); err != nil {
		return nil, err
	}
	const b14Steps = 10
	b14, b14Allocs, err := minOver(gateRounds, gateB14Reps, func() error {
		for phase := 0; phase < 2; phase++ {
			for s := 0; s < b14Steps; s++ {
				rel := fmt.Sprintf("ra%d", 1+s%5)
				tup := relation.Tuple{fmt.Sprintf("g%d", s), "v"}
				d14.nodes["A"].UpdateLocal(func(p *core.Peer) {
					if phase == 0 {
						p.Inst.Insert(rel, tup)
					} else {
						p.Inst.Delete(rel, tup)
					}
				})
				if _, e := d14.root.AnswerQuery(q14, vars14, peernet.QueryOptions{}); e != nil {
					return e
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st := d14.root.Stats(); st.IncrPatched == 0 {
		return nil, fmt.Errorf("B14 gate loop never patched (seeded=%d fallbacks=%d) — measuring the wrong path", st.IncrSeeded, st.IncrFallbacks)
	}

	return &gateResult{
		Parallelism: par,
		CalibNS:     calib.Nanoseconds(),
		B5GroundNS:  b5.Nanoseconds(),
		B1RepairNS:  b1.Nanoseconds(),
		B9SlicedNS:  b9.Nanoseconds(),
		B10LocalNS:  b10.Nanoseconds(),
		B11DelegNS:  b11.Nanoseconds(),
		B12LargeNS:  b12.Nanoseconds(),
		B13ServeNS:  b13.Nanoseconds(),
		B14ChurnNS:  b14.Nanoseconds(),
		B5Norm:      float64(b5.Nanoseconds()) / float64(calib.Nanoseconds()),
		B1Norm:      float64(b1.Nanoseconds()) / float64(calib.Nanoseconds()),
		B9Norm:      float64(b9.Nanoseconds()) / float64(calib.Nanoseconds()),
		B10Norm:     float64(b10.Nanoseconds()) / float64(calib.Nanoseconds()),
		B11Norm:     float64(b11.Nanoseconds()) / float64(calib.Nanoseconds()),
		B12Norm:     float64(b12.Nanoseconds()) / float64(calib.Nanoseconds()),
		B13Norm:     float64(b13.Nanoseconds()) / float64(calib.Nanoseconds()),
		B14Norm:     float64(b14.Nanoseconds()) / float64(calib.Nanoseconds()),
		B5AllocsOp:  b5Allocs,
		B1AllocsOp:  b1Allocs,
		B9AllocsOp:  b9Allocs,
		B10AllocsOp: b10Allocs,
		B11AllocsOp: b11Allocs,
		B12AllocsOp: b12Allocs,
		B13AllocsOp: b13Allocs,
		B14AllocsOp: b14Allocs,
		PeakRSSKB:   peakRSSKB(),
	}, nil
}

// gateCompare fails (non-nil error) when a normalized metric regressed
// by more than threshold (0.25 = 25%) against the baseline.
func gateCompare(w io.Writer, cur, base *gateResult, threshold float64) error {
	check := func(name string, curV, baseV float64) error {
		ratio := curV / baseV
		fmt.Fprintf(w, "gate %-22s baseline=%.3f current=%.3f ratio=%.2f (limit %.2f)\n",
			name, baseV, curV, ratio, 1+threshold)
		if ratio > 1+threshold {
			return fmt.Errorf("p2pbench: %s regressed %.0f%% (normalized %.3f -> %.3f, limit %.0f%%)",
				name, (ratio-1)*100, baseV, curV, threshold*100)
		}
		return nil
	}
	if err := check("B5 grounding facts=100", cur.B5Norm, base.B5Norm); err != nil {
		return err
	}
	if err := check("B1 repair n=40", cur.B1Norm, base.B1Norm); err != nil {
		return err
	}
	// Baselines written before a metric existed carry no figure for it;
	// skip rather than divide by zero.
	if base.B9Norm > 0 {
		if err := check("B9 sliced wide-universe", cur.B9Norm, base.B9Norm); err != nil {
			return err
		}
	}
	if base.B10Norm > 0 {
		if err := check("B10 localized scattered", cur.B10Norm, base.B10Norm); err != nil {
			return err
		}
	}
	if base.B11Norm > 0 {
		if err := check("B11 delegated fanout", cur.B11Norm, base.B11Norm); err != nil {
			return err
		}
	}
	if base.B12Norm > 0 {
		if err := check("B12 large universe", cur.B12Norm, base.B12Norm); err != nil {
			return err
		}
	}
	if base.B13Norm > 0 {
		if err := check("B13 serving stream", cur.B13Norm, base.B13Norm); err != nil {
			return err
		}
	}
	if base.B14Norm > 0 {
		if err := check("B14 churn incremental", cur.B14Norm, base.B14Norm); err != nil {
			return err
		}
	}
	// Allocation gates: counts, not times, so no calibration — the
	// ratio is machine-independent and tight by nature. The same
	// threshold applies; a path that suddenly allocates 25% more per
	// op has lost a buffer reuse somewhere.
	for _, m := range []struct {
		name      string
		cur, base int64
	}{
		{"B5 grounding allocs/op", cur.B5AllocsOp, base.B5AllocsOp},
		{"B1 repair allocs/op", cur.B1AllocsOp, base.B1AllocsOp},
		{"B9 sliced allocs/op", cur.B9AllocsOp, base.B9AllocsOp},
		{"B10 localized allocs/op", cur.B10AllocsOp, base.B10AllocsOp},
		{"B11 delegated allocs/op", cur.B11AllocsOp, base.B11AllocsOp},
		{"B12 large-universe allocs/op", cur.B12AllocsOp, base.B12AllocsOp},
		{"B13 serving allocs/op", cur.B13AllocsOp, base.B13AllocsOp},
		{"B14 churn allocs/op", cur.B14AllocsOp, base.B14AllocsOp},
	} {
		if m.base <= 0 {
			continue
		}
		if err := check(m.name, float64(m.cur), float64(m.base)); err != nil {
			return err
		}
	}
	return nil
}

// runGate is the -gate / -gate-out entry point: measure, optionally
// write BENCH_gate.json, optionally compare against a baseline file.
func runGate(w io.Writer, outPath, baselinePath string, threshold float64, par int) error {
	cur, err := runGateMeasure(par)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gate measured: calib=%v b5-ground=%v b1-repair=%v b9-sliced=%v b10-localized=%v b11-delegated=%v b12-large=%v b13-serve=%v b14-churn=%v (parallelism=%d, min of %d)\n",
		time.Duration(cur.CalibNS), time.Duration(cur.B5GroundNS), time.Duration(cur.B1RepairNS),
		time.Duration(cur.B9SlicedNS), time.Duration(cur.B10LocalNS), time.Duration(cur.B11DelegNS),
		time.Duration(cur.B12LargeNS), time.Duration(cur.B13ServeNS), time.Duration(cur.B14ChurnNS), par, gateRounds)
	fmt.Fprintf(w, "gate allocs/op: b5=%d b1=%d b9=%d b10=%d b11=%d b12=%d b13=%d b14=%d peak-rss=%dKB\n",
		cur.B5AllocsOp, cur.B1AllocsOp, cur.B9AllocsOp, cur.B10AllocsOp, cur.B11AllocsOp,
		cur.B12AllocsOp, cur.B13AllocsOp, cur.B14AllocsOp, cur.PeakRSSKB)
	if outPath != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "gate wrote %s\n", outPath)
	}
	if baselinePath == "" {
		return nil
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base gateResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("p2pbench: bad baseline %s: %v", baselinePath, err)
	}
	if base.Parallelism != cur.Parallelism {
		return fmt.Errorf("p2pbench: baseline was measured at parallelism=%d, current at %d; incomparable",
			base.Parallelism, cur.Parallelism)
	}
	if err := gateCompare(w, cur, &base, threshold); err != nil {
		// One retry: a co-tenant noise burst during the measurement
		// window can push a normalized metric past the limit; a real
		// regression fails the fresh measurement too.
		fmt.Fprintf(w, "gate failed, re-measuring once: %v\n", err)
		cur, err = runGateMeasure(par)
		if err != nil {
			return err
		}
		return gateCompare(w, cur, &base, threshold)
	}
	return nil
}
