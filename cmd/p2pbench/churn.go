package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
	"repro/internal/relation"
	"repro/internal/workload"
)

// churnDeployment is one two-node ChurnUniverse overlay with a warm
// root: TTL caches on, series seeded by a first query.
type churnDeployment struct {
	nodes map[core.PeerID]*peernet.Node
	root  *peernet.Node
	stop  func()
}

func newChurnDeployment(k, clean int, seed int64, noIncremental bool) (*churnDeployment, error) {
	nodes, stop, err := peernet.Deploy(workload.ChurnUniverse(k, clean, seed), peernet.NewInProc())
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		n.Parallelism = benchParallelism
	}
	root := nodes["A"]
	root.CacheTTL = time.Hour
	root.NoIncremental = noIncremental
	return &churnDeployment{nodes: nodes, root: root, stop: stop}, nil
}

// replayChurn drives one write+query churn pass and returns the time
// spent answering queries (the writes are identical across arms, so
// the query time is the comparable quantity) plus every query answer
// in stream order.
func replayChurn(d *churnDeployment, stream []workload.StreamOp, parsed map[string]foquery.Formula) (time.Duration, [][]relation.Tuple, error) {
	var queryTime time.Duration
	var answers [][]relation.Tuple
	for _, op := range stream {
		if op.Write {
			d.nodes[op.Peer].UpdateLocal(func(p *core.Peer) {
				p.Inst.Insert(op.Rel, relation.Tuple(op.Tuple))
			})
			continue
		}
		start := time.Now()
		ans, err := d.root.AnswerQuery(parsed[op.Query], op.Vars, peernet.QueryOptions{})
		queryTime += time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		answers = append(answers, ans)
	}
	return queryTime, answers, nil
}

// runB14 measures incremental re-answering under write traffic: the
// same deterministic churn stream (a relevant single-fact write, then
// the hot query, repeated) replayed against two identical
// ChurnUniverse deployments — one answering incrementally (journal
// delta -> touched-component re-search -> answer-cache Promote), one
// with NoIncremental, where every post-write query pays the
// evict-and-recompute full path. Every answer pair is checked
// byte-identical while measuring, and the incremental arm must be at
// least 5x cheaper per post-write query. Timing ratios under CI noise
// are retried a few times before failing.
func runB14(w io.Writer) error {
	const k, clean, steps = 6, 200, 40
	stream := workload.ChurnStream(k, steps, 3)
	parsed := map[string]foquery.Formula{}
	for _, op := range stream {
		if !op.Write {
			if _, ok := parsed[op.Query]; !ok {
				parsed[op.Query] = foquery.MustParse(op.Query)
			}
		}
	}
	const target = 5.0
	var incrTime, fullTime time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		incr, err := newChurnDeployment(k, clean, 3, false)
		if err != nil {
			return err
		}
		full, err := newChurnDeployment(k, clean, 3, true)
		if err != nil {
			incr.stop()
			return err
		}
		// Warm both arms: the first query pays the full path on each
		// (and seeds the incremental arm's series).
		for text, f := range parsed {
			var vars []string
			for _, op := range stream {
				if op.Query == text {
					vars = op.Vars
					break
				}
			}
			if _, err := incr.root.AnswerQuery(f, vars, peernet.QueryOptions{}); err != nil {
				incr.stop()
				full.stop()
				return err
			}
			if _, err := full.root.AnswerQuery(f, vars, peernet.QueryOptions{}); err != nil {
				incr.stop()
				full.stop()
				return err
			}
		}
		var incrAns [][]relation.Tuple
		incrTime, incrAns, err = replayChurn(incr, stream, parsed)
		if err == nil {
			var fullAns [][]relation.Tuple
			fullTime, fullAns, err = replayChurn(full, stream, parsed)
			if err == nil {
				for i := range incrAns {
					if !reflect.DeepEqual(incrAns[i], fullAns[i]) {
						err = fmt.Errorf("byte-identity: query %d incremental=%v recompute=%v",
							i, incrAns[i], fullAns[i])
						break
					}
				}
			}
		}
		st := incr.root.Stats()
		patched, seeded, fallbacks := st.IncrPatched, st.IncrSeeded, st.IncrFallbacks
		incr.stop()
		full.stop()
		if err != nil {
			return err
		}
		if patched < int64(steps) {
			return fmt.Errorf("incremental arm patched %d of %d post-write queries (seeded=%d fallbacks=%d)",
				patched, steps, seeded, fallbacks)
		}
		ratio := float64(fullTime) / float64(incrTime)
		fmt.Fprintf(w, "churn k=%d clean=%d steps=%d: incremental=%v recompute=%v ratio=%.1fx (patched=%d fallbacks=%d)\n",
			k, clean, steps, incrTime.Round(time.Microsecond), fullTime.Round(time.Microsecond),
			ratio, patched, fallbacks)
		if ratio >= target {
			fmt.Fprintf(w, "amortized per post-write query: incremental=%v recompute=%v\n",
				(incrTime / time.Duration(steps)).Round(time.Microsecond),
				(fullTime / time.Duration(steps)).Round(time.Microsecond))
			return nil
		}
	}
	return fmt.Errorf("incremental answering only %.1fx cheaper than evict-and-recompute, want >= %.0fx (incremental=%v recompute=%v)",
		float64(fullTime)/float64(incrTime), target, incrTime, fullTime)
}
