package peernet

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/slice"
)

// This file is the warm-hit path of AnswerQuery. Under either semantics
// a query's answer key is AnswerKey(query, vars, slice signature, data
// fingerprint), and the slice depends only on the specifications the
// snapshot walk read: the root's own, and one export per reachable
// peer. A repeated query that cannot seed an incremental series (every
// transitive query, and direct ones under NoIncremental) therefore
// rebuilds its key without a snapshot, from
//
//   - the queryPlan memoized by its last full answer: the slice, valid
//     while the root's spec signature is unchanged and every spec-cache
//     entry the walk read is still the cached, unexpired entry;
//   - the live RelHash of each of the root's relations in the slice;
//   - the content hash of each remote relation's unexpired
//     relation-cache entry (relEntry.relHash).
//
// These are exactly the inputs the full path would read at this moment
// (it too serves unexpired spec and relation entries from the caches),
// and slice.Fingerprint composes the hashes the way DataFingerprint
// does, so the probe's key is byte-identical to the full path's. (A
// spec export carries no facts; one that did would make the probe hash
// less than the snapshot holds, so it could only miss, or hit an entry
// computed over the same content.) A probe hit is one answer-cache hit;
// anything else falls through to the full path, whose lookup counts the
// query. The memoized slice only names the key: a miss computes its own
// slice over its own snapshot, since KeepDep compares dependencies by
// identity.

// queryPlan is the memoized slice of one (query, vars, semantics).
type queryPlan struct {
	sl *slice.Slice
	// relKeys[i] is the relation-cache key of sl.Rels[i], "" for the
	// root's own relations.
	relKeys []string
	// specSig is the root's spec signature (localSpecSig), read with the
	// root clone the slice was computed over; specs holds the spec-cache
	// entry of every peer the walk fetched.
	specSig string
	specs   map[core.PeerID]*specEntry
}

// maxPlans bounds the plan table like the series table, evicting
// arbitrarily.
const maxPlans = 64

func planKey(query string, vars []string, transitive bool) string {
	return strings.Join([]string{query, strings.Join(vars, ","), strconv.FormatBool(transitive)}, "\x00")
}

// finish records the slice of a completed snapshot and where the probe
// finds each of its relations.
func (p *queryPlan) finish(sys *core.System, sl *slice.Slice) {
	p.sl = sl
	p.relKeys = make([]string, len(sl.Rels))
	for i, rel := range sl.Rels {
		if owner, _ := sys.Owner(rel); owner != sl.Root {
			p.relKeys[i] = relCacheKey(owner, rel)
		}
	}
}

// sigMemo is a spec signature together with the local write generation
// it was rendered at.
type sigMemo struct {
	gen uint64
	sig string
	ok  bool
}

// localSpecSig returns the live root's spec signature (specSig),
// memoized per local write generation: every UpdateLocal advances
// relGens[root] while it holds dataMu, and the caller holds dataMu too,
// so the peer cannot change between the generation read and the render.
func (n *Node) localSpecSig() string {
	n.cacheMu.Lock()
	gen := n.relGens[n.Peer.ID]
	if m := n.localSig; m.ok && m.gen == gen {
		n.cacheMu.Unlock()
		return m.sig
	}
	n.cacheMu.Unlock()
	sig := specSig(n.Peer)
	n.cacheMu.Lock()
	n.localSig = sigMemo{gen: gen, sig: sig, ok: true}
	n.cacheMu.Unlock()
	return sig
}

// specSig is peerSpecSig plus the constraint names, which the slice
// signature renders and peerSpecSig leaves out.
func specSig(p *core.Peer) string {
	var b strings.Builder
	b.WriteString(peerSpecSig(p))
	for _, ic := range p.ICs {
		b.WriteString(ic.Name)
		b.WriteByte(0)
	}
	for _, id := range decNeighbors(p) {
		for _, d := range p.DECs[id] {
			b.WriteString(d.Name)
			b.WriteByte(0)
		}
	}
	return b.String()
}

// storePlan memoizes a plan under its key.
func (n *Node) storePlan(key string, p *queryPlan) {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	if n.plans == nil {
		n.plans = make(map[string]*queryPlan)
	}
	if _, exists := n.plans[key]; !exists && len(n.plans) >= maxPlans {
		for k := range n.plans {
			delete(n.plans, k)
			break
		}
	}
	n.plans[key] = p
}

// validPlan returns the plan memoized under key if every spec-cache
// entry it was computed over is still the cached, unexpired entry,
// together with the unexpired relation-cache entry of each remote
// relation of its slice (nil at the root's relations). It returns a nil
// plan when anything is missing.
func (n *Node) validPlan(key string) (*queryPlan, []*relEntry) {
	now := n.now()
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	p := n.plans[key]
	if p == nil {
		return nil, nil
	}
	for id, e := range p.specs {
		if n.specCache[id] != e || !now.Before(e.expires) {
			return nil, nil
		}
	}
	remote := make([]*relEntry, len(p.relKeys))
	for i, k := range p.relKeys {
		if k == "" {
			continue
		}
		e := n.relCache[k]
		if e == nil || !now.Before(e.expires) {
			return nil, nil
		}
		remote[i] = e
	}
	return p, remote
}

// probeAnswer serves a repeated query from the answer cache without a
// snapshot, under the key the full path would compute. It reports false
// and counts nothing when the plan is missing or stale, a relation of
// the slice is not cached, or the key misses.
func (n *Node) probeAnswer(query string, vars []string, transitive bool) ([]relation.Tuple, bool) {
	p, remote := n.validPlan(planKey(query, vars, transitive))
	if p == nil {
		return nil, false
	}
	hashes := make([]uint64, len(p.sl.Rels))
	n.dataMu.RLock()
	if n.localSpecSig() != p.specSig {
		n.dataMu.RUnlock()
		return nil, false
	}
	for i, rel := range p.sl.Rels {
		if remote[i] == nil {
			hashes[i] = n.Peer.Inst.RelHash(rel)
		}
	}
	n.dataMu.RUnlock()
	for i, e := range remote {
		if e != nil {
			hashes[i] = e.relHash(p.sl.Rels[i])
		}
	}
	key := slice.AnswerKey(query, vars, p.sl, slice.Fingerprint(p.sl, hashes))
	return n.answersCache().Probe(key)
}

// relHash is relation.Instance.RelHash over the entry's tuples, the
// hash the full path's snapshot gives the relation once it has inserted
// them. It is computed once, outside cacheMu; entries are immutable.
func (e *relEntry) relHash(rel string) uint64 {
	e.hashOnce.Do(func() {
		in := relation.NewInstance()
		for _, t := range e.tuples {
			in.Insert(rel, t)
		}
		e.hash = in.RelHash(rel)
	})
	return e.hash
}
