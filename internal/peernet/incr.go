package peernet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/slice"
)

// This file is the serving-plane half of incremental re-answering under
// write traffic. A node keeps, per repeated direct-semantics query, an
// incrSeries: the sliced snapshot the last full answer was computed
// over, the reduced single-stage repair problem (core.ReduceSingleStage)
// and its repair.IncrState, plus the journal position of the local
// instance the snapshot corresponds to. When the same query returns
// after local writes, the node replays the journal delta onto the
// retained snapshot (a handful of fact toggles instead of a rebuild),
// hands the changed facts to the IncrState — which re-checks only the
// matches they touch and re-searches only the touched conflict
// components — and promotes the cached answer entry to the post-write
// fingerprint key in place (slice.AnswerCache.Promote).
//
// Exactness: a series only exists for query shapes whose full answer
// is a single repair problem (ReduceSingleStage) over a domain-free
// query, and every gate the IncrState can fail (bounded search, delta
// crossing components, a query spanning two components) drops the
// series and falls back to the byte-identical full recompute. Validity
// is re-checked on every hit: the journal must be the same object with
// the delta still buffered, the local spec must render identically,
// the remote relation generations must be untouched and the series
// must be inside its TTL window. Remote peers' own writes are
// invisible to a live series, exactly as they are invisible to the
// node's relation TTL cache — a series never outlives CacheTTL from
// its seeding, so the staleness is the same TTL grade as the caches
// the full path reads through.
type incrSeries struct {
	mu sync.Mutex

	// journal/seq: the local-instance journal this series tracks and
	// the position the retained snapshot reflects.
	journal *relation.Journal
	seq     uint64

	// sys/sl: the retained sliced snapshot; rootInst is the root
	// peer's instance inside sys (the patch target that keeps
	// slice.DataFingerprint aligned with a fresh snapshot), global the
	// slice-restricted merged instance the repair state answers over.
	sys      *core.System
	sl       *slice.Slice
	rootInst *relation.Instance
	global   *relation.Instance

	st *repair.IncrState

	// lastKey is the answer-cache key of the series' current answer
	// ("" right after a no-solutions outcome); specSig detects local
	// spec drift (journals record facts, not schema or constraints);
	// remoteGens pins the remote relation generations the snapshot's
	// fetched data was cached under.
	lastKey    string
	specSig    string
	expires    time.Time
	remoteGens map[core.PeerID]uint64
}

// maxIncrSeries bounds the per-node series table; each series retains
// a sliced snapshot, so the table stays small and evicts arbitrarily.
const maxIncrSeries = 64

func seriesKey(query string, vars []string) string {
	return query + "\x00" + strings.Join(vars, ",")
}

// peerSpecSig renders the spec-level shape of a peer — relations with
// arities, local ICs, DECs per neighbour, trust edges — so a series
// can detect specification drift that the fact journal cannot see.
func peerSpecSig(p *core.Peer) string {
	var b strings.Builder
	for _, rel := range p.Schema.Relations() {
		d, _ := p.Schema.Decl(rel)
		fmt.Fprintf(&b, "r:%s/%d;", rel, d.Arity)
	}
	for _, ic := range p.ICs {
		fmt.Fprintf(&b, "i:%s;", ic.String())
	}
	decIDs := make([]string, 0, len(p.DECs))
	for id := range p.DECs {
		decIDs = append(decIDs, string(id))
	}
	sort.Strings(decIDs)
	for _, id := range decIDs {
		for _, d := range p.DECs[core.PeerID(id)] {
			fmt.Fprintf(&b, "d:%s:%s;", id, d.String())
		}
	}
	trustIDs := make([]string, 0, len(p.Trust))
	for id := range p.Trust {
		trustIDs = append(trustIDs, string(id))
	}
	sort.Strings(trustIDs)
	for _, id := range trustIDs {
		fmt.Fprintf(&b, "t:%s:%d;", id, p.Trust[core.PeerID(id)])
	}
	return b.String()
}

// answersCache returns the node's answer cache, creating it lazily.
func (n *Node) answersCache() *slice.AnswerCache {
	n.cacheMu.Lock()
	if n.answers == nil {
		n.answers = slice.NewAnswerCache(0)
	}
	c := n.answers
	n.cacheMu.Unlock()
	return c
}

// incrAnswer tries to answer the query from its series. handled=false
// means the caller must run the full path (any invalid series has been
// dropped, so the full path will reseed).
func (n *Node) incrAnswer(q foquery.Formula, vars []string, par int) (ans []relation.Tuple, err error, handled bool) {
	key := seriesKey(q.String(), vars)
	n.incrMu.Lock()
	s := n.incrSeries[key]
	n.incrMu.Unlock()
	if s == nil {
		return nil, nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	drop := func() {
		atomic.AddInt64(&n.incrFallbacks, 1)
		n.incrMu.Lock()
		if n.incrSeries[key] == s {
			delete(n.incrSeries, key)
		}
		n.incrMu.Unlock()
	}
	if n.CacheTTL <= 0 || !n.now().Before(s.expires) {
		drop()
		return nil, nil, false
	}
	n.dataMu.RLock()
	j := n.Peer.Inst.Journal()
	liveSig := peerSpecSig(n.Peer)
	n.dataMu.RUnlock()
	if j == nil || j != s.journal || liveSig != s.specSig {
		drop()
		return nil, nil, false
	}
	n.cacheMu.Lock()
	gensOK := true
	for pid, g := range s.remoteGens {
		if n.relGens[pid] != g {
			gensOK = false
			break
		}
	}
	n.cacheMu.Unlock()
	if !gensOK {
		drop()
		return nil, nil, false
	}
	changes, ok := j.Since(s.seq)
	if !ok {
		// The journal trimmed past our position (a write burst larger
		// than the buffer); the delta is unrecoverable.
		drop()
		return nil, nil, false
	}

	// A write-free repeat is an answer-cache hit, counted as such (the
	// Get) and not as a patch: every query is counted exactly once.
	if len(changes) == 0 && s.lastKey != "" {
		if cached, hit := n.answersCache().Get(s.lastKey); hit {
			return cached, nil, true
		}
	}

	// Replay the delta onto the retained snapshot. Journal changes are
	// membership-accurate (only status-changing writes are recorded),
	// so replaying them reproduces the live root content exactly, and
	// the content-based relation hashes make the patched snapshot
	// fingerprint identical to a freshly assembled one. The repair state
	// is handed the changes that the slice's relations took.
	var sliced []relation.Change
	for _, c := range changes {
		var took bool
		if c.Insert {
			s.rootInst.Insert(c.Fact.Rel, c.Fact.Tuple)
			took = s.sl.Has(c.Fact.Rel) && s.global.Insert(c.Fact.Rel, c.Fact.Tuple)
		} else {
			s.rootInst.Delete(c.Fact.Rel, c.Fact.Tuple)
			took = s.sl.Has(c.Fact.Rel) && s.global.Delete(c.Fact.Rel, c.Fact.Tuple)
		}
		if took {
			sliced = append(sliced, c)
		}
	}
	s.seq += uint64(len(changes))

	ans, noRepairs, ok, err := s.st.Answers(s.global, sliced, q, vars, repair.Options{Parallelism: par})
	if !ok || err != nil {
		// An exactness gate failed (or evaluation errored, which the
		// full path reports canonically): fall back. The series state
		// has consumed the delta but is discarded whole, so nothing
		// stale survives.
		drop()
		return nil, nil, false
	}
	atomic.AddInt64(&n.incrPatched, 1)
	if noRepairs {
		s.lastKey = ""
		return nil, core.ErrNoSolutions, true
	}
	fp, ferr := slice.DataFingerprint(s.sys, s.sl)
	if ferr != nil {
		drop()
		return nil, nil, false
	}
	newKey := slice.AnswerKey(q.String(), vars, s.sl, fp)
	n.answersCache().Promote(s.lastKey, newKey, ans)
	s.lastKey = newKey
	return ans, nil, true
}

// seedSeries installs a series for a query the full path just answered
// successfully, provided the snapshot provably corresponds to the
// journal position read before it was assembled and the problem shape
// is incrementalizable. All checks are best-effort: failing any of
// them just means the next repeat query pays the full recompute again.
func (n *Node) seedSeries(q foquery.Formula, vars []string, sys *core.System, sl *slice.Slice, lastKey string, j *relation.Journal, seq uint64, gens map[core.PeerID]uint64) {
	if j == nil || n.CacheTTL <= 0 || !repair.DomainFreeQuery(q) {
		return
	}
	// The snapshot's root clone was taken after the seq read; if the
	// journal object and position are still the same now, no local
	// write landed in between, so the clone reflects exactly seq.
	n.dataMu.RLock()
	cur := n.Peer.Inst.Journal()
	n.dataMu.RUnlock()
	if cur != j || j.Seq() != seq {
		return
	}
	remoteGens := make(map[core.PeerID]uint64, len(sl.RemotePeers()))
	n.cacheMu.Lock()
	gensOK := true
	for _, pid := range sl.RemotePeers() {
		if n.relGens[pid] != gens[pid] {
			gensOK = false
			break
		}
		remoteGens[pid] = gens[pid]
	}
	n.cacheMu.Unlock()
	if !gensOK {
		return
	}
	rootPeer, ok := sys.Peer(n.Peer.ID)
	if !ok {
		return
	}
	deps, fixed, ok := core.ReduceSingleStage(sys, n.Peer.ID, core.SolveOptions{KeepDep: sl.KeepDep})
	if !ok {
		return
	}
	st, ok := repair.NewIncrState(deps, fixed)
	if !ok {
		return
	}
	global := sys.Global()
	if rr := sl.RelevantRels(); rr != nil {
		global = global.RestrictRels(rr)
	}
	s := &incrSeries{
		journal:    j,
		seq:        seq,
		sys:        sys,
		sl:         sl,
		rootInst:   rootPeer.Inst,
		global:     global,
		st:         st,
		lastKey:    lastKey,
		specSig:    peerSpecSig(rootPeer),
		expires:    n.now().Add(n.CacheTTL),
		remoteGens: remoteGens,
	}
	key := seriesKey(q.String(), vars)
	n.incrMu.Lock()
	if n.incrSeries == nil {
		n.incrSeries = make(map[string]*incrSeries)
	}
	if _, exists := n.incrSeries[key]; !exists && len(n.incrSeries) >= maxIncrSeries {
		for k := range n.incrSeries {
			delete(n.incrSeries, k)
			break
		}
	}
	n.incrSeries[key] = s
	n.incrMu.Unlock()
	atomic.AddInt64(&n.incrSeeds, 1)
}
