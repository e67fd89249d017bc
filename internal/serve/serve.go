// Package serve is the long-running serving plane over a peernet.Node:
// concurrent peer-consistent queries with admission control, per-query
// parallelism budgeting and an observability layer.
//
// Admission is a bounded pool: at most Config.MaxConcurrent queries run
// at once, up to Config.MaxQueue more wait for a slot, and anything
// beyond that is shed immediately (ErrOverloaded, HTTP 503) instead of
// building an unbounded backlog. While Stop drains the server, every
// new arrival is shed too (ErrStopping, also HTTP 503). Each admitted
// query runs with an engine parallelism budget of
// Config.QueryParallelism, so a single expensive repair search cannot
// claim every core and starve the pool.
//
// The query path itself is the node's AnswerQuery: snapshot-isolated
// reads (copy-on-write instance clones), a content-addressed answer
// cache, and in-flight coalescing of identical concurrent queries
// (singleflight on the slice/fingerprint answer key). Local writes go
// through Write -> Node.UpdateLocal and are visible to the next query,
// with no TTL staleness window on the served peer's own data. (Remote
// peers' data is still read through the TTL caches; that freshness
// bound is the documented CacheTTL semantics, not a serving-plane
// artifact.)
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/metrics"
	"repro/internal/peernet"
	"repro/internal/relation"
)

// ErrOverloaded reports a shed query: the pool and the admission queue
// were both full. Clients should back off and retry.
var ErrOverloaded = errors.New("serve: overloaded, query shed (admission queue full)")

// ErrStopping reports a query rejected because the server is draining:
// Stop was called, and new arrivals are shed while the admitted and
// queued requests run to completion.
var ErrStopping = errors.New("serve: stopping, new queries rejected")

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxConcurrent bounds the queries running at once; 0 means
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the queries waiting for a pool slot; one more is
	// shed. 0 means 4*MaxConcurrent; negative means no queue (shed as
	// soon as the pool is full).
	MaxQueue int
	// QueryParallelism is the engine parallelism budget of one admitted
	// query. 0 divides GOMAXPROCS evenly across the pool
	// (max(1, GOMAXPROCS/MaxConcurrent)), so the pool at capacity uses
	// about the whole machine without oversubscribing it.
	QueryParallelism int
	// Transitive selects the Section 4.3 semantics for queries that do
	// not specify one (the HTTP API's per-request "transitive" param
	// overrides it).
	Transitive bool
	// DrainTimeout bounds how long Stop waits for the admitted and
	// queued queries to complete before giving up. 0 means a 5s
	// default; negative means Stop does not wait at all (it still
	// sheds new arrivals).
	DrainTimeout time.Duration
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueryParallelism <= 0 {
		c.QueryParallelism = runtime.GOMAXPROCS(0) / c.MaxConcurrent
		if c.QueryParallelism < 1 {
			c.QueryParallelism = 1
		}
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.DrainTimeout < 0 {
		c.DrainTimeout = 0
	}
	return c
}

// Server answers queries over one node with admission control and
// metrics. Create with New; safe for concurrent use.
type Server struct {
	node  *peernet.Node
	cfg   Config
	reg   *metrics.Registry
	sem   chan struct{}
	start time.Time

	// stopping is set (atomically) by Stop: admit sheds new arrivals
	// while the already admitted and queued queries drain.
	stopping int32

	queries  *metrics.Counter
	errs     *metrics.Counter
	writes   *metrics.Counter
	shed     *metrics.Counter
	inflight *metrics.Gauge
	queued   *metrics.Gauge
	latency  *metrics.Histogram
}

// New builds a server over the node. The node should be fully
// configured (CacheTTL, Parallelism, neighbours) — the server only
// reads it and routes writes through UpdateLocal.
func New(node *peernet.Node, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		node:     node,
		cfg:      cfg,
		reg:      reg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		start:    time.Now(),
		queries:  reg.Counter("serve_queries_total"),
		errs:     reg.Counter("serve_query_errors_total"),
		writes:   reg.Counter("serve_writes_total"),
		shed:     reg.Counter("serve_shed_total"),
		inflight: reg.Gauge("serve_inflight"),
		queued:   reg.Gauge("serve_queue_depth"),
		latency:  reg.Histogram("serve_query_latency"),
	}
	reg.Func("serve_qps", func() float64 {
		secs := time.Since(s.start).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(s.queries.Value()) / secs
	})
	for _, m := range nodeMetrics {
		read := m.read
		reg.Func(m.name, func() float64 { return float64(read(node.Stats())) })
	}
	return s
}

// nodeMetrics maps the node's counters (peernet.Stats) to their
// metrics series.
var nodeMetrics = []struct {
	name string
	read func(peernet.Stats) int64
}{
	{"node_answer_cache_hits", func(s peernet.Stats) int64 { return s.AnswerCacheHits }},
	{"node_answer_cache_misses", func(s peernet.Stats) int64 { return s.AnswerCacheMisses }},
	{"node_relation_cache_hits", func(s peernet.Stats) int64 { return s.RelationCacheHits }},
	{"node_relation_cache_misses", func(s peernet.Stats) int64 { return s.RelationCacheMisses }},
	{"node_coalesce_leaders", func(s peernet.Stats) int64 { return s.CoalesceLeaders }},
	{"node_coalesced_total", func(s peernet.Stats) int64 { return s.Coalesced }},
	{"node_solver_runs_total", func(s peernet.Stats) int64 { return s.SolverRuns }},
	{"node_local_writes_total", func(s peernet.Stats) int64 { return s.LocalWrites }},
	{"repair_searches_total", func(s peernet.Stats) int64 { return s.RepairSearches }},
	{"repair_localized_total", func(s peernet.Stats) int64 { return s.RepairLocalized }},
	{"repair_components_total", func(s peernet.Stats) int64 { return s.RepairComponents }},
	{"node_incr_patched_total", func(s peernet.Stats) int64 { return s.IncrPatched }},
	{"node_incr_seeded_total", func(s peernet.Stats) int64 { return s.IncrSeeded }},
	{"node_incr_fallbacks_total", func(s peernet.Stats) int64 { return s.IncrFallbacks }},
	{"node_delegated_total", func(s peernet.Stats) int64 { return s.Delegated }},
	{"node_delegation_fallbacks_total", func(s peernet.Stats) int64 { return s.DelegationFallbacks }},
}

// Registry exposes the server's metrics registry (also mounted at
// /metrics by Handler).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Config reports the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// admit claims a pool slot, waiting in the bounded queue when the pool
// is full; it reports false (shed) when the queue is full too, or when
// the server is draining (a query that reached the queue before Stop
// still completes — only new arrivals are shed). release must be
// called after a true return.
func (s *Server) admit() bool {
	if atomic.LoadInt32(&s.stopping) != 0 {
		return false
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
	}
	if s.queued.Value() >= int64(s.cfg.MaxQueue) {
		return false
	}
	// The depth check and increment are not atomic together: a burst
	// can briefly overshoot MaxQueue by the number of racing admitters.
	// The bound is a shed policy, not an invariant, so approximate
	// accounting in exchange for a lock-free admission path is the
	// right trade.
	s.queued.Add(1)
	s.sem <- struct{}{}
	// Flip the gauges in claim-then-release order so queued+inflight
	// never reads zero for a request that is still moving between the
	// queue and the pool (Stop polls that sum to decide drained).
	s.inflight.Add(1)
	s.queued.Add(-1)
	return true
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// Stop drains the server gracefully: new arrivals are shed immediately
// (ErrStopping), while every query already admitted to the pool or
// waiting in the queue runs to completion. It returns true when the
// server drained inside Config.DrainTimeout, false when queries were
// still running at the deadline (they keep running — Stop abandons
// the wait, it does not cancel work). Safe to call more than once and
// concurrently; every caller performs its own bounded wait.
func (s *Server) Stop() bool {
	atomic.StoreInt32(&s.stopping, 1)
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for {
		if s.inflight.Value() == 0 && s.queued.Value() == 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			return s.inflight.Value() == 0 && s.queued.Value() == 0
		}
		time.Sleep(time.Millisecond)
	}
}

// Stopping reports whether Stop has been called.
func (s *Server) Stopping() bool { return atomic.LoadInt32(&s.stopping) != 0 }

// Answer runs one peer-consistent query through admission, the node's
// cache/coalescing path and the metrics layer. It returns ErrOverloaded
// without touching the engines when the query is shed.
func (s *Server) Answer(q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, error) {
	if !s.admit() {
		s.shed.Inc()
		if atomic.LoadInt32(&s.stopping) != 0 {
			return nil, ErrStopping
		}
		return nil, ErrOverloaded
	}
	defer s.release()
	start := time.Now()
	ans, err := s.node.AnswerQuery(q, vars, peernet.QueryOptions{
		Transitive:  transitive,
		Parallelism: s.cfg.QueryParallelism,
	})
	s.latency.Observe(time.Since(start))
	s.queries.Inc()
	if err != nil {
		s.errs.Inc()
		return nil, err
	}
	return ans, nil
}

// AnswerString is Answer over an unparsed query.
func (s *Server) AnswerString(query string, vars []string, transitive bool) ([]relation.Tuple, error) {
	f, err := foquery.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.Answer(f, vars, transitive)
}

// Write inserts a fact into the served peer through UpdateLocal: the
// data fingerprint moves, so the write is visible to the very next
// query. The relation must be
// declared by the peer with matching arity.
func (s *Server) Write(rel string, tuple []string) error {
	var werr error
	s.node.UpdateLocal(func(p *core.Peer) {
		d, ok := p.Schema.Decl(rel)
		if !ok {
			werr = fmt.Errorf("serve: peer %s has no relation %s", p.ID, rel)
			return
		}
		if d.Arity != len(tuple) {
			werr = fmt.Errorf("serve: relation %s has arity %d, got %d values", rel, d.Arity, len(tuple))
			return
		}
		p.Inst.Insert(rel, relation.Tuple(tuple))
	})
	if werr == nil {
		s.writes.Inc()
	}
	return werr
}

// WriteMetrics renders the metrics registry as text.
func (s *Server) WriteMetrics(w io.Writer) { s.reg.Render(w) }

// queryResponse is the JSON shape of /query.
type queryResponse struct {
	Count   int        `json:"count"`
	Answers [][]string `json:"answers"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Handler mounts the HTTP API:
//
//	GET  /query?q=...&vars=X,Y[&transitive=true]  -> {"count":n,"answers":[[...],...]}
//	POST /write?rel=r&tuple=a,b                   -> {"ok":true}
//	GET  /metrics                                 -> text, one "name value" per line
//	GET  /healthz                                 -> ok
//
// Shed queries answer 503 with Retry-After, and queries arriving while
// Stop drains the server 503 without it; malformed requests answer 400,
// engine failures 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.FormValue("q")
		varsParam := r.FormValue("vars")
		if q == "" || varsParam == "" {
			httpError(w, http.StatusBadRequest, errors.New("q and vars are required"))
			return
		}
		vars := strings.Split(varsParam, ",")
		for i := range vars {
			vars[i] = strings.TrimSpace(vars[i])
		}
		transitive := s.cfg.Transitive
		if t := r.FormValue("transitive"); t != "" {
			b, err := strconv.ParseBool(t)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad transitive %q: %w", t, err))
				return
			}
			transitive = b
		}
		f, err := foquery.Parse(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ans, err := s.Answer(f, vars, transitive)
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
		}
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrStopping) {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		resp := queryResponse{Count: len(ans), Answers: make([][]string, 0, len(ans))}
		for _, t := range ans {
			resp.Answers = append(resp.Answers, []string(t))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/write", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
			return
		}
		rel := r.FormValue("rel")
		tupleParam := r.FormValue("tuple")
		if rel == "" || tupleParam == "" {
			httpError(w, http.StatusBadRequest, errors.New("rel and tuple are required"))
			return
		}
		tuple := strings.Split(tupleParam, ",")
		for i := range tuple {
			tuple[i] = strings.TrimSpace(tuple[i])
		}
		if err := s.Write(rel, tuple); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]bool{"ok": true})
	})
	mux.Handle("/metrics", s.reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}
