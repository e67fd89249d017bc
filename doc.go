// Package repro is a from-scratch Go reproduction of Bertossi & Bravo,
// "Query Answering in Peer-to-Peer Data Exchange Systems" (EDBT 2004
// Workshops, arXiv:cs/0401015).
//
// The implementation lives under internal/ (see README.md for the
// architecture): the model-theoretic semantics of Definitions 1-5
// (internal/core, internal/repair), the answer-set-programming route of
// Sections 3-4 with a full disjunctive stable-model solver
// (internal/program, internal/lp), the first-order rewriting of Section
// 2 (internal/rewrite), and the substrates: relational storage
// (internal/relation), FO query evaluation (internal/foquery),
// constraints (internal/constraint), networking (internal/peernet), a
// system-description format (internal/sysdsl) and workload generators
// (internal/workload).
//
// Command-line tools: cmd/p2pqa (query answering over system
// descriptions), cmd/asp (the stable-model solver), cmd/p2pbench
// (regenerates every experiment; p2pbench -list names them, and
// TestAllExperimentsRun in cmd/p2pbench checks each fidelity
// experiment's expected line). Runnable examples
// are under examples/. The root package holds the benchmark suite
// (bench_test.go), one benchmark per experiment row.
//
// # Concurrency and caching
//
// Peer consistent answering is an intersection over all solutions of a
// peer (Definition 5) — an embarrassingly parallel computation. Every
// layer exposes a Parallelism knob (0 = GOMAXPROCS, 1 = the sequential
// seed behaviour; results are byte-identical at every level, with one
// exception: solve with MaxModels set and Parallelism > 1 returns a
// scheduling-dependent subset of the models):
//
//   - repair.Options.Parallelism drives the wave expansion of the
//     repair search itself (see below) and fans the per-repair query
//     evaluation of IntersectAnswers over a bounded worker pool
//     (internal/parallel);
//   - core.SolveOptions.Parallelism additionally fans out the stage-2
//     repair loop of SolutionsFor, merged deterministically;
//   - ground.Options.Parallelism fans the grounder's fixpoint rounds
//     and rule instantiation out per rule (see below);
//   - solve.Options.Parallelism splits the stable-model DFS on the
//     first k choice atoms into 2^k parallel subtrees with a shared
//     atomic model counter honoring MaxModels;
//   - program.RunOptions.Parallelism threads the knob through the whole
//     LP route (grounder included);
//   - peernet.Node.Parallelism fetches neighbour specifications
//     concurrently per BFS level, and peernet.Node.CacheTTL caches
//     fetched specifications and relations for a TTL window
//     (SetNeighbor invalidates). Node is safe for concurrent use.
//
// All three CLIs surface the knob as -parallelism.
//
// # Parallel execution model
//
// The two formerly sequential engines — grounding and the repair
// search — run as deterministic rounds of parallel pure work between
// sequential merge barriers, so their output is byte-identical at
// every parallelism level (the determinism stress tests and the
// grounder fuzz target lock this down; CI runs them under -race with a
// GOMAXPROCS matrix).
//
// Grounding (internal/lp/ground): the possible-atom fixpoint runs in
// rounds over a frozen snapshot of the predicate-hash-sharded atom
// set. Workers match rules independently — each with a private
// term.Keyer over the shared concurrent symbol table and private
// pending buffers — and emit both newly derived head atoms and the
// round's full rule instantiation as interned symbol ids. The merge
// between rounds drains the buffers in rule order (the only
// synchronization point), so the set's insertion order, every
// candidate enumeration order and the final atom numbering are
// scheduling-independent. Rules re-run only when a predicate their
// body reads (positively or under negation) grew in the previous round
// (predicate-level semi-naive filtering); a rule's last active
// enumeration therefore is its final instantiation, and the fixpoint
// doubles as the instantiation pass.
//
// Repair search (internal/repair): the search over candidate states
// runs in waves. Each wave takes a fixed-size chunk off the pending
// stack (a constant independent of Parallelism), filters it through
// the frontier — the sharded visited set and the found-delta
// subsumption check, in that pinned order (frontier.go) — on the
// coordinating goroutine, expands the admitted states in parallel
// (lazy instance materialization from the parent plus the action,
// violation check, action enumeration, and child deltas derived by
// XOR-ing the action's fact ids into the parent's sorted delta), and
// merges results back in canonical order. Pruning, bound reporting and
// MaxRepairs cuts all happen on the merge path, so they are
// deterministic too — unlike solve's MaxModels, a truncated repair
// search returns the same repairs at every parallelism level.
//
// # Conflict-localized repair
//
// Repairs of an inconsistent instance factorize over the connected
// components of its conflict graph (the classic CQA observation of
// Arenas-Bertossi-Chomicki). The repair engine exploits this
// (internal/repair/localize.go): at the root it computes every
// violation (constraint.AllViolations) and partitions them by
// interaction — fact-level edges where the facts their repair actions
// can touch overlap, predicate-level dependency-closure edges where a
// violation can cascade (existential-TGD witness inserts, insertions
// that create new body matches, deletions that un-witness a TGD's
// derived head facts). Each component is then searched independently by
// the wave engine with everything outside frozen: violation checking is
// incremental (after an action only the dependencies indexed under the
// touched predicates — constraint.DepIndex — are re-checked against
// lists carried on the search node), and the global minimal repairs are
// composed as the cross-product of the component repairs, which is
// exact because the disjoint deltas make ⊆-minimality factorize. When
// a query's relations intersect the deltas of at most one component
// (and the query is domain-independent by construction), consistent
// answering evaluates that component's repairs alone and never
// materializes the cross-product: k scattered conflicts cost k
// component searches instead of a 2^k enumeration (benchmark B10:
// ~54x at k=8, ~350x at k=10 on this box).
//
// It is one engine (repair's conflicts type) with two drivers. The
// one-shot driver behind repair.Repairs and repair.ConsistentAnswers
// partitions constraint.AllViolations and solves every component; the
// incremental driver (repair.IncrState, see "Incremental maintenance")
// partitions the violation lists it maintains across writes and solves
// only the components it has not cached. Both share the partition, the
// per-component search with its bound proof, and the answer step: no
// repairs in some component, the one component a query touches, the
// refusal of a query that touches two, and a query no component
// touches answered over the instance itself.
//
// Localization is applied only when provably exact, so it is
// byte-identical to the global wave search (localized_equiv_test.go):
// MaxRepairs truncation falls back to the global engine (truncation
// order is the spec), domain-dependent witness enumeration falls back
// (components would interact through the active domain), and the
// component searches — run without subsumption pruning so every
// reachable component delta is generated — prove ErrBound absent by
// summing their largest generated deltas below MaxDelta, falling back
// otherwise. repair.Options.NoLocalize / core.SolveOptions.NoLocalize
// expose the global engine for A/B measurement.
//
// # Query-sliced pipeline
//
// The answer path is sliced end-to-end by query relevance
// (internal/slice): from a query posed to a peer, slice.Compute derives
// the predicate-dependency closure over the peer's DECs/ICs (and, in
// the transitive case, every trust-reachable peer's), seeded with the
// queried peer's whole schema plus the query's predicates
// (foquery.Preds — negation, quantifiers and implications included).
// The closure tracks which relations, constraints and peers a
// query-relevant repair can observe; constraints with no repairable
// predicate (guards, whose violation eliminates every solution) are
// always kept, and a kept referential constraint that draws witnesses
// from the active domain degrades the slice to Full (no restriction).
// The slice is then applied at every layer:
//
//   - peernet.Node.SnapshotFor, the node's only snapshot builder,
//     fetches specifications first (OpExportSpec — schema/DECs/trust,
//     no facts, TTL-cached per peer), computes the slice, and moves
//     only the relations in it — one batched OpFetchBatch round-trip
//     per relevant peer; bystander peers contribute schema but ship no
//     tuples;
//   - core.SolveOptions{KeepDep, RelevantRels} restricts the repair
//     engine to the slice's constraints over the restricted global
//     instance; program.BuildOptions does the same for the LP builders
//     (persistence rules, primed relations and facts only for relevant
//     relations) and ground.Options.Relevant prunes rules outside the
//     relevant predicates' dependency closure before grounding;
//   - peernet.Node.AnswerQuery, the node's only query method, caches
//     answers under a content-addressed (query, vars, slice signature,
//     data fingerprint) key (slice.AnswerCache): repeat queries over
//     unchanged relevant data skip grounding and repair entirely, and
//     an update to an irrelevant relation does not evict them. The
//     signature names every enforced constraint and digests its
//     rendering and mutable predicates, so a spec change that can
//     change answers (a trust change included) changes the key. With
//     TTL caches on, a repeated query that cannot seed an incremental
//     series (every transitive query, and direct ones under
//     NoIncremental) probes the cache first, under the key rebuilt
//     without a snapshot: its slice is memoized per (query, vars,
//     semantics) while the root's spec signature and the spec-cache
//     entries it was computed over are unchanged, and the fingerprint
//     composes the root relations' live hashes with a content hash
//     kept on each cached remote relation (slice.Fingerprint, shared
//     with DataFingerprint, so the key is byte-identical). TTL cache
//     invalidation is relation-granular: SetNeighbor evicts only the
//     changed peer's relation/spec entries.
//
// Slicing is semantics-preserving — minimal repairs factor over
// disjoint constraint components, and the slice covers every component
// the query can observe — so sliced and unsliced answers are
// byte-identical (slicing_equiv_test.go: fixtures plus 20 seeded
// workloads across four generator shapes at Parallelism {1,4},
// including the no-solutions guard case). The node therefore has no
// unsliced path: its tests compare AnswerQuery against the unsliced
// engines over the in-memory system (testutil.Oracle). The B9
// wide-universe benchmark (cmd/p2pbench, workload.WideUniverse) shows
// the effect: a tiny query-relevant core inside a wide overlay moves 1
// of 25 remote relations and answers about 10x faster than the
// unsliced engines do in memory, with repeats served from the answer
// cache in ~15µs.
//
// # Delegated distributed execution
//
// Centralized answering pulls every relevant peer's data to the
// querying node and solves there — N peers as N data sources. A query
// with QueryOptions.Delegate set inverts that: slice.PlanDelegation
// decomposes the query's relevance slice per owning peer and classifies
// each target of the root's DECs as a delegate (the target enforces
// DECs of its own, so it must repair before answering), a fetch (data
// read raw) or a stub (schema only). Delegates receive one atomic
// sub-query per shared relation over the existing OpPCA wire op with
// Request.Delegate set, answer it transitively from their own data
// through their own slice.AnswerCache, and ship answer sets — not
// relations — back. The querying node rebuilds a mini
// system in which each delegate's answered relations appear as plain
// facts (its DECs consumed, trust edges dropped), and runs the
// ordinary sliced transitive pipeline over it, so composition is the
// same combined-program semantics, just over pre-repaired inputs.
//
// Delegation runs only when provably exact
// (internal/slice/delegate.go); every refused shape falls back to
// AnswerQuery with the caller's options (parallelism included),
// byte-identical answers and errors; QueryOptions.Delegation reports
// which way a query went. The gate refuses: direct semantics
// (Definition 4 reads neighbour data raw — nothing to delegate);
// domain-dependent (Full) slices (repairs may draw witnesses from the
// whole active domain); same-trust DECs at a non-root peer (the
// combined program ignores them, a delegate would enforce them); root
// same-trust DECs toward a repairing peer (a joint repair does not
// factor through the delegate's answer sets); and any kept dependency
// whose repair is not forced (a delegate with repair choices returns
// the intersection over its own solutions, which can differ from
// composing per-solution answers). The wire protocol carries a hop
// budget and a visited-peer set, so cyclic overlays terminate and
// surface the same error as the centralized path.
// delegated_equiv_test.go pins equivalence on the paper fixtures plus
// 20 seeded systems per shape at Parallelism {1,4} under both
// semantics, with the expected delegate/fallback outcome asserted so
// delegation cannot silently degrade into fallback-vs-fallback
// comparisons. Benchmark B11 (workload.DelegationFanout) measures the
// point: the querying peer receives filtered answer sets instead of raw
// hub+leaf relations (~2.4x fewer bytes, fewer round-trips), and repair
// CPU runs at the hubs, where the data lives. cmd/p2pqa surfaces the
// path as -delegate.
//
// # Interned-symbol core and indexing
//
// All hot paths run over interned symbols instead of raw strings:
//
//   - internal/symtab is a concurrent string↔uint32 interner. Every
//     core.System owns one table (adopted from its first peer;
//     System.AddPeer re-homes later peers onto it), so constants
//     compare and hash as machine words across the whole system.
//   - internal/relation stores each relation as a packed columnar
//     segment (see the next section), with lazily built, internally
//     synchronized read caches per relation: a sorted string view
//     (Tuples / TuplesShared) and per-column hash indexes driving
//     Instance.MatchingTuples, the indexed lookup used by constraint
//     matching, FO query generation and the repair search's witness
//     joins. The string API is a thin view; every enumeration order is
//     unchanged.
//   - internal/term provides trail-based matching (MatchTrail /
//     UnbindTrail) so grounding and constraint matching backtrack
//     without cloning substitutions, and Keyer, which interns
//     canonical ground-atom keys.
//   - internal/lp/ground keeps its possible-atom set sharded by
//     predicate hash with per-column value indexes and per-atom
//     interned keys (matched candidates hand the emitter their key
//     without re-rendering), and dedups ground rules by packed
//     atom-id keys.
//   - internal/repair describes candidate states by fact-id bitset
//     deltas (internal/bitset): the visited set, the subsumption check
//     and the final ⊆-minimality filter (minimalByDelta) all run on
//     packed word sets instead of string-keyed maps.
//   - internal/lp/solve dedups models by atom-id bitsets.
//   - internal/peernet keeps the wire format plain strings (ids are
//     node-local); tuples are re-interned at the boundary. OpFetchBatch
//     / Node.FetchRelations retrieve several relations per round-trip.
//
// The interned pipeline is byte-identical to the string pipeline on
// every fixture; internal/repair/equiv_quick_test.go cross-validates it
// against a seed-style reference on random instances.
//
// # Columnar memory plane
//
// At 10^5-10^6 facts the ceiling is no longer algorithmic but
// allocation rate and per-tuple overhead, so the hot data plane is
// columnar end to end:
//
//   - Packed tuple segments. Each relation is one arena: a flat
//     []symtab.Sym of concatenated tuple ids plus a row-offset array,
//     indexed by an open-addressing hash table from tuple content to
//     row, with liveness as a bitset over dense row ids. Inserting a
//     tuple appends ids to the arena (or revives its tombstoned row);
//     deleting clears a liveness bit. No per-tuple map entry, boxed
//     key string or per-row allocation survives at scale.
//   - Two-level copy-on-write. Instance.Clone marks segments shared
//     in O(relations). A liveness-only mutation (delete, revive)
//     privatizes just the liveness bitset; only appending a brand-new
//     row copies the arena. Repair search and serving snapshots clone
//     freely: at B12 scale a clone costs ~6µs and zero allocations
//     until first write, and parent and clone may be mutated and read
//     from different goroutines (shared arrays are immutable while
//     shared; caches are lock-protected) — pinned under -race by
//     relation/columnar_test.go, which also drives randomized op
//     sequences and a fuzz tape against a map-backed reference
//     implementation.
//   - Bitset deltas (internal/bitset). Candidate repair states,
//     visited-set keys, subsumption and ⊆-minimality all operate on
//     canonical trimmed []uint64 sets over interned fact ids — O(n/64)
//     subset/xor, allocation-free membership, and a byte key for
//     map-level dedup (solve's model dedup shares the package).
//   - Pooled wave-search scratch. Expansion workers draw
//     toggle/predicate scratch buffers from a sync.Pool, and the
//     answering paths materialize repairs without the canonical
//     sort-by-key render (discovery order suffices for intersecting),
//     which removed the dominant allocation site.
//
// Benchmark B12 (workload.LargeUniverse, 10^5 facts, sliced query
// core) measures the plane end to end: repair+consistent-answering
// allocations drop ~657x and wall time ~5.4x versus the map-backed
// storage, byte-identical answers throughout. The bench gate
// (cmd/p2pbench -gate) tracks allocs/op per benchmark block (gated,
// machine-independent) and peak RSS (recorded); -cpuprofile /
// -memprofile expose the profiles that guided the work.
//
// # Serving plane
//
// internal/serve turns a peernet.Node into a long-running query server
// (p2pqa -serve: an HTTP API — /query, /write, /metrics, /healthz —
// next to the existing peernet transport). Three mechanisms govern a
// served query:
//
//   - Admission. A bounded pool runs at most Config.MaxConcurrent
//     queries at once; up to Config.MaxQueue more wait for a slot, and
//     anything beyond is shed immediately (ErrOverloaded, HTTP 503 with
//     Retry-After) instead of building an unbounded backlog. Each
//     admitted query runs with an engine parallelism budget of
//     Config.QueryParallelism (default: GOMAXPROCS divided across the
//     pool), so one expensive repair search cannot claim every core and
//     starve the pool.
//   - Coalescing. Identical concurrent queries are collapsed in flight
//     (slice.Flight, a hand-rolled singleflight keyed by the same
//     content-addressed answer key the cache uses): one leader
//     computes, followers wait and receive deep copies, and the node's
//     accounting keeps the invariant that every query is exactly one of
//     cache hit, flight leader, coalesced follower or incremental patch
//     (Node.Stats). Node.NoCoalesce exposes the uncoalesced path for
//     A/B measurement (benchmark B13 shows a burst of identical queries
//     computing once instead of once per admitted query).
//   - Metrics. internal/metrics is a dependency-free registry of
//     counters, gauges and exponential-bucket histograms rendered in
//     text exposition format at /metrics and dumped by -stats on
//     shutdown: qps, query/write totals, p50/p99 latency, shed count,
//     queue depth, answer-cache hit rate, coalesce and solver-run
//     counters, repair-search component statistics, incremental
//     patches, seedings and fallbacks, delegated runs and delegation
//     fallbacks — the node's series are registered from one
//     peernet.Stats table, every counter of it.
//
// Write visibility is the serving plane's freshness guarantee: local
// writes go through Server.Write -> Node.UpdateLocal, and every query
// reads the live peer (a fresh clone, the write journal replayed onto
// a retained snapshot, or on a warm hit the live relation hashes; the
// TTL caches hold remote specs and relations only), so a write is
// visible to the very next query — no
// staleness window on the served peer's own data. (Remote peers' data
// is still read through the TTL caches; that freshness bound is the
// documented CacheTTL semantics, not a serving-plane artifact.) Queries
// read snapshot-isolated copy-on-write instance clones throughout, so
// in-flight queries are unaffected by concurrent writes. Benchmark B13
// drives the plane end to end: a sustained mixed read/write stream from
// concurrent clients, write-visibility and byte-identity checks against
// the engines over the in-memory system, and the coalescing A/B.
//
// Server.Stop drains before shutdown: new queries are rejected
// immediately (ErrStopping, HTTP 503) while both the in-flight queries
// and the already-admitted queue are given Config.DrainTimeout to
// complete, so a restart does not throw away work the server already
// accepted.
// Delegated sub-answering coalesces too: a peer answering OpPCA
// delegate requests runs them through the same in-flight group as its
// own queries (keyed separately), so a burst of roots delegating the
// same sub-query costs the delegate one solve.
//
// # Incremental maintenance
//
// Under write traffic the serving plane's content-addressed caches
// have a blind spot: any relevant write moves the data fingerprint,
// every cached answer key goes stale, and the next query pays a full
// snapshot + repair search + answer intersection even though a
// single-fact write typically touches one conflict component out of
// many. Incremental re-answering (internal/relation's journal,
// internal/repair's IncrState, the series layer in internal/peernet)
// closes that gap:
//
//   - Fact journal. A relation.Journal attached to the peer's live
//     instance records membership-accurate fact-level changes (dup
//     inserts and absent deletes are not recorded), with a bounded
//     buffer and Since(seq) retrieval. Recording is O(1) amortized: a
//     full journal trims by advancing a start offset and compacts its
//     buffer once per cap records.
//   - Delta-driven repair. repair.IncrState keeps, per query series,
//     the per-dependency violation lists, the full TGDs' head-fact
//     support counts and a cache of solved conflict components keyed by
//     their violation sets. A delta arrives as the facts that changed;
//     constraint.NetDelta folds them to net inserts and deletes (a write
//     and its undo cancel). Only the dependencies whose predicates the
//     delta touches (constraint.DepIndex.Affected) are brought up to
//     date, by the delta kernel (see "Answer-path costs"), so a patch's
//     violation work is proportional to the delta. IncrState is the
//     incremental driver of the conflict-component engine (see
//     "Conflict-localized repair"): it partitions the refreshed lists,
//     fills in the cached components whose read set the delta misses,
//     lets the engine search the rest, and answers through the
//     engine's answer step. The exactness gates are the engine's —
//     bounded searches, deltas that could sum past MaxDelta, queries
//     spanning two components — plus non-domain-free queries; each
//     reports ok=false and the caller falls back to the byte-identical
//     full recompute. The partition itself is still rebuilt from every
//     violation on each patch.
//   - Series + cache patching. A peernet.Node keeps an incrSeries per
//     repeated direct-semantics query: the retained sliced snapshot,
//     the reduced single-stage repair problem (core.ReduceSingleStage)
//     and the journal position it reflects. A repeat query replays the
//     journal delta onto the retained snapshot, asks the IncrState, and
//     promotes the answer-cache entry to the post-write fingerprint key
//     in place (slice.AnswerCache.Promote) — the relation hashes are
//     content-based, so the patched snapshot fingerprints identically
//     to a freshly assembled one. A repeat with an empty delta is
//     served from the promoted entry and counted as a cache hit, not a
//     patch. Validity is re-checked on every hit (journal identity and
//     availability, spec signature, remote relation generations, TTL
//     window); any mismatch drops the series and the full path reseeds
//     it. A series never outlives CacheTTL, so remote staleness stays
//     at the same TTL grade as the node's relation caches.
//     Node.NoIncremental exposes the evict-and-recompute path for A/B
//     measurement.
//
// Benchmark B14 (workload.ChurnUniverse + ChurnStream) measures the
// payoff: on a scattered-component workload whose query slice spans
// every relation, a single-fact relevant write followed by the hot
// query is >=5x cheaper answered incrementally than by
// evict-and-recompute, with every answer pair checked byte-identical
// while measuring. The churn tests (go test -run 'Churn|Incr') replay
// randomized interleaved write/query schedules and assert every served
// answer equals the in-memory oracle's and that every query is counted
// exactly once, under -race and at parallelism 1 and 4.
//
// # Answer-path costs
//
// A warm hit skips the snapshot: a repeated transitive query (or a
// direct one under NoIncremental) over unchanged relevant data costs a
// plan lookup, one cached hash per relevant relation and the answer
// copy, whatever the data size (BenchmarkWarmHit). The probe hashes a
// cached remote relation once, on the first repeat that reads it, so a
// query's first answer does no new hashing. Only a miss assembles the
// snapshot, and it computes its own slice, since KeepDep compares
// dependencies by identity.
//
// Definition 5 evaluates the query once per repair, and the repair
// search re-checks dependencies once per search state, so three kernels
// on that path are kept proportional to the query and the delta rather
// than to the instance. All three are exact and always on.
//
//   - Lazy active domain. foquery.Env builds its quantification domain
//     (the instance's active domain plus the query constants, sorted)
//     the first time evaluation enumerates a variable no atom binds: a
//     quantifier, or the filter fallback behind negations and
//     comparisons. Atoms, conjunctions, disjunctions and existentials
//     over generators never build it, so a query like ra0(X,Y) costs its
//     matches, not a walk of every relation of every repair.
//   - Delta violations. A dependency's violation list after a net
//     delta is derived from its list before, never recomputed
//     (Dependency.ViolationsDelta, the delete-and-rederive discipline of
//     Gupta, Mumick & Subrahmanian, SIGMOD 1993). The kernel drops the
//     violations whose body uses a deleted fact (constraint.WithoutFacts);
//     evaluates the body matches that bind some body atom to an inserted
//     fact (semi-naive evaluation); and for a TGD re-checks the
//     violations whose head an inserted fact may now witness and the
//     matches whose head a deleted fact may have witnessed. New entries
//     are merged in matchBody's order — lexicographic over the body
//     atoms' tuples in Tuple.Key order, since it joins the atoms in a
//     fixed order over sorted views — so the list equals Violations(cur)
//     element for element, skip set included. The repair search's
//     recheck derives every state's lists this way, for every action
//     kind, and so does IncrState on each patch; a delete-only delta on
//     an EGD or a denial costs exactly the WithoutFacts filter.
//     Dependency.Violations remains the tests' reference and seeds fresh
//     states. Two costs still scan whole relations: the data
//     fingerprint's RelHash (slice.DataFingerprint re-renders and
//     re-sorts the written relation), and the semi-naive probes of a
//     self-join on the written relation, which rebuild its sorted view
//     and column index after each write.
//   - Render-once answer sorts. foquery.Answers, IntersectAnswersOpt and
//     PossibleAnswers render each answer tuple's key once, to deduplicate
//     or count, and sort on those keys (relation.SortKeyed) instead of
//     rendering two keys per comparison.
//   - One key render per solution. repair.Repairs returns its repairs
//     distinct and in canonical key order, rendering each repair's
//     Instance.Key once (repair.SortDistinct). core.SolutionsFor returns
//     a single Repairs result as it is — a peer without same-trust DECs,
//     or stage 2 over a single stage-1 repair — so each solution's key
//     is rendered once. Only a merge of several stage-2 results renders
//     them again, in the same SortDistinct.
package repro
