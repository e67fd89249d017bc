package main

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/workload"
)

// runB13 measures the serving plane under sustained mixed load: a
// serve.Server over a WideUniverse overlay answers an interleaved
// read/write stream from concurrent clients. Three properties are
// checked while measuring: a write is visible to the very next query
// (no TTL staleness window on the served peer), the served answers are
// byte-identical to the engines over the in-memory system, and
// in-flight coalescing measurably reduces solver invocations against
// an uncoalesced burst.
func runB13(w io.Writer) error {
	const width, relsPer, facts, conflicts = 6, 2, 16, 1
	const clients, streamOps, writeEvery = 4, 400, 8
	sys := workload.WideUniverse(width, relsPer, facts, conflicts, 1)
	ip := peernet.NewInProc()
	ip.Latency = 100 * time.Microsecond
	nodes, stop, err := peernet.Deploy(sys, ip)
	if err != nil {
		return err
	}
	defer stop()
	root := nodes["P0"]
	root.Parallelism = benchParallelism
	root.CacheTTL = time.Minute
	srv := serve.New(root, serve.Config{MaxConcurrent: clients, MaxQueue: 4 * clients})
	vars := []string{"X", "Y"}
	q := foquery.MustParse("q0(X,Y)")

	// Write visibility: a fact written through the server must be a
	// certain answer of the immediately following query (fresh key, so
	// it joins no conflict).
	before, err := srv.Answer(q, vars, false)
	if err != nil {
		return err
	}
	if err := srv.Write("q0", []string{"vis_key", "vis_val"}); err != nil {
		return err
	}
	after, err := srv.Answer(q, vars, false)
	if err != nil {
		return err
	}
	if len(after) != len(before)+1 {
		return fmt.Errorf("write visibility: %d answers after write, want %d", len(after), len(before)+1)
	}
	visible := false
	for _, t := range after {
		if t.Equal(relation.Tuple{"vis_key", "vis_val"}) {
			visible = true
		}
	}
	if !visible {
		return fmt.Errorf("write visibility: written fact missing from the next query's answers")
	}

	// Sustained mixed stream: concurrent clients drain a deterministic
	// interleaved read/write schedule through the server.
	stream := workload.MixedStream(width, relsPer, streamOps, writeEvery, 2)
	parsed := map[string]foquery.Formula{}
	for _, op := range stream {
		if !op.Write {
			if _, ok := parsed[op.Query]; !ok {
				parsed[op.Query] = foquery.MustParse(op.Query)
			}
		}
	}
	var next atomic.Int64
	errs := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				op := stream[i]
				if op.Write {
					if op.Peer == root.Peer.ID {
						if err := srv.Write(op.Rel, op.Tuple); err != nil {
							errs <- err
							return
						}
					} else {
						nodes[op.Peer].UpdateLocal(func(p *core.Peer) {
							p.Inst.Insert(op.Rel, relation.Tuple(op.Tuple))
						})
					}
					continue
				}
				if _, err := srv.Answer(parsed[op.Query], op.Vars, false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return fmt.Errorf("stream client: %w", err)
	default:
	}

	reg := srv.Registry()
	queries := reg.Counter("serve_queries_total").Value()
	lat := reg.Histogram("serve_query_latency")
	st := root.Stats()
	fmt.Fprintf(w, "stream: %d ops (%d queries, %d writes) over %d clients in %v\n",
		len(stream), queries-2, srv.Registry().Counter("serve_writes_total").Value(), clients, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "stream: qps=%.0f p50=%v p99=%v shed=%d\n",
		float64(queries)/elapsed.Seconds(), lat.Quantile(0.50).Round(time.Microsecond),
		lat.Quantile(0.99).Round(time.Microsecond), reg.Counter("serve_shed_total").Value())
	fmt.Fprintf(w, "stream: answer cache hits=%d misses=%d patched=%d; coalesce leaders=%d coalesced=%d; solver runs=%d\n",
		st.AnswerCacheHits, st.AnswerCacheMisses, st.IncrPatched, st.CoalesceLeaders, st.Coalesced, st.SolverRuns)

	// Byte-identity: on the quiesced system every stream query answered
	// by the server must equal the engines' answer over the in-memory
	// system (no network, slicing or cache).
	for text, f := range parsed {
		var qvars []string
		for _, op := range stream {
			if op.Query == text {
				qvars = op.Vars
				break
			}
		}
		served, err := srv.Answer(f, qvars, false)
		if err != nil {
			return err
		}
		want, err := core.PeerConsistentAnswers(sys, root.Peer.ID, f, qvars, core.SolveOptions{Parallelism: benchParallelism})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(served, want) {
			return fmt.Errorf("byte-identity: served %s = %v, in-memory = %v", text, served, want)
		}
	}
	fmt.Fprintf(w, "identity: %d query shapes byte-identical to the in-memory engines\n", len(parsed))

	// Coalescing A/B: a burst of identical queries against a cold key.
	// With coalescing the burst needs ~1 solver run; without it every
	// concurrently admitted query computes. The TTL caches are disabled
	// and the transport latency raised for this phase, so each query
	// pays a multi-millisecond snapshot before its cache lookup and the
	// admitted queries genuinely overlap (the system is quiesced between
	// phases, so the field writes do not race any Call). The burst
	// starts behind a gate. The uncoalesced count is still
	// scheduling-dependent (late arrivals hit the answer cache), so the
	// comparison retries a few times before giving up.
	const burst = 16
	ip.Latency = 2 * time.Millisecond
	root.CacheTTL = 0
	// Bulk-load the root relation first, so one solve takes tens of
	// milliseconds: the burst's concurrent cache misses then genuinely
	// overlap the leader's compute instead of racing its Put by
	// microseconds.
	root.UpdateLocal(func(p *core.Peer) {
		for i := 0; i < 4000; i++ {
			p.Inst.Insert("q0", relation.Tuple{fmt.Sprintf("bulk%d", i), "v"})
		}
	})
	runBurst := func(tag string) (int64, error) {
		if err := srv.Write("q0", []string{"ab_" + tag, "v"}); err != nil {
			return 0, err
		}
		runsBefore := root.Stats().SolverRuns
		gate := make(chan struct{})
		var bwg sync.WaitGroup
		berrs := make(chan error, burst)
		for i := 0; i < burst; i++ {
			bwg.Add(1)
			go func() {
				defer bwg.Done()
				<-gate
				if _, err := srv.Answer(q, vars, false); err != nil {
					berrs <- err
				}
			}()
		}
		close(gate)
		bwg.Wait()
		select {
		case err := <-berrs:
			return 0, err
		default:
		}
		return root.Stats().SolverRuns - runsBefore, nil
	}
	var runsOn, runsOff int64
	for attempt := 0; attempt < 3; attempt++ {
		root.NoCoalesce = false
		on, err := runBurst(fmt.Sprintf("on%d", attempt))
		if err != nil {
			return err
		}
		root.NoCoalesce = true
		off, err := runBurst(fmt.Sprintf("off%d", attempt))
		if err != nil {
			return err
		}
		root.NoCoalesce = false
		runsOn, runsOff = on, off
		if runsOn < runsOff {
			break
		}
	}
	fmt.Fprintf(w, "coalescing: burst of %d identical queries -> solver runs %d coalesced vs %d uncoalesced\n",
		burst, runsOn, runsOff)
	if runsOn >= runsOff {
		return fmt.Errorf("coalescing did not reduce solver invocations: %d on vs %d off", runsOn, runsOff)
	}
	return nil
}
