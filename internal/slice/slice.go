// Package slice computes query-relevance slices of P2P data exchange
// systems: the magic-sets-style restriction that makes the cost of peer
// consistent answering proportional to the query instead of to the
// universe. From a query posed to a peer, Compute derives the
// predicate-dependency closure over the peer's DECs, local ICs and (in
// the transitive case) the DECs of every trust-reachable peer, tracking
// which relations, which constraints and which peers a query-relevant
// repair can possibly observe. The engines then
//
//   - fetch only the relations in the slice (peernet.Node.SnapshotFor),
//   - enforce only the constraints in the slice
//     (core.SolveOptions.KeepDep, program.BuildOptions.KeepDep),
//   - repair/ground only the relations in the slice
//     (core.SolveOptions.RelevantRels, ground.Options.Relevant),
//
// and answers are cached per (peer, slice signature, data fingerprint)
// key (AnswerCache), so a change to an irrelevant relation neither
// invalidates cached answers nor re-triggers grounding.
//
// # Soundness
//
// The closure is seeded with every relation of the queried peer (they
// are local, so including them costs no network traffic) plus the
// query's own predicates. A constraint is pulled into the slice as soon
// as it shares a predicate with the closure, and its predicates join
// the closure — so the slice covers every connected component of the
// constraint graph the query can observe. Because minimal-distance
// repairs factor over disjoint constraint components, and the answer
// evaluation only sees the queried peer's relations (all in the slice),
// dropping the remaining components cannot change answers, with two
// exceptions that Compute handles conservatively:
//
//   - guard constraints — constraints with no repairable (mutable)
//     predicate — can eliminate *all* solutions when violated (the
//     "peer has no solutions" outcome of Definition 5), so they are
//     always kept and their relations always fetched;
//   - domain-dependent constraints — referential DECs whose witness
//     choices enumerate the active domain — make repairs depend on
//     constants of arbitrary relations, so a kept constraint of this
//     shape degrades the slice to Full (no restriction).
package slice

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
)

// Slice is the query-relevance projection of one (system, peer, query
// shape) triple. The zero value is not meaningful; use Compute or
// ForQuery.
type Slice struct {
	// Root is the queried peer.
	Root core.PeerID
	// Transitive records which semantics the slice was computed for.
	Transitive bool
	// Rels are the relevant relations, sorted.
	Rels []string
	// Full marks a degenerate slice (a kept domain-dependent constraint
	// forces the whole system in): Rels then holds every relation and
	// RelevantRels reports no restriction.
	Full bool
	// KeptDeps / TotalDeps count the constraints kept vs considered.
	KeptDeps, TotalDeps int
	// TotalRels counts the relations of the whole system.
	TotalRels int
	// Signature is a canonical rendering of the slice: two queries with
	// the same signature observe the same constraints and relations, so
	// their answers may share a cache entry (keyed together with a data
	// fingerprint of the relevant relations).
	Signature string

	relSet     map[string]bool
	keep       map[*constraint.Dependency]bool
	relsByPeer map[core.PeerID][]string
}

// KeepDep reports whether the dependency is enforced under the slice.
// It is designed to be passed as core.SolveOptions.KeepDep /
// program.BuildOptions.KeepDep (dependencies are compared by identity,
// so the options must be used with the same *core.System the slice was
// computed on).
func (sl *Slice) KeepDep(d *constraint.Dependency) bool {
	return sl.Full || sl.keep[d]
}

// RelevantRels returns the relation restriction for the engines: the
// slice's relation set, or nil (no restriction) for a Full slice.
func (sl *Slice) RelevantRels() map[string]bool {
	if sl.Full {
		return nil
	}
	return sl.relSet
}

// Has reports whether a relation is in the slice.
func (sl *Slice) Has(rel string) bool { return sl.Full || sl.relSet[rel] }

// RelsOf returns the slice's relations owned by one peer, sorted.
func (sl *Slice) RelsOf(id core.PeerID) []string { return sl.relsByPeer[id] }

// RemotePeers returns the peers other than the root that own at least
// one relevant relation, sorted — the fetch plan of SnapshotFor.
func (sl *Slice) RemotePeers() []core.PeerID {
	out := make([]core.PeerID, 0, len(sl.relsByPeer))
	for id := range sl.relsByPeer {
		if id != sl.Root {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RemoteRelCount counts the relevant relations not owned by the root —
// the relations a sliced snapshot actually has to move over the
// network.
func (sl *Slice) RemoteRelCount() int {
	n := 0
	for _, id := range sl.RemotePeers() {
		n += len(sl.relsByPeer[id])
	}
	return n
}

// ForQuery computes the slice for a parsed query: Compute over the
// query's predicates (negated subformulas, quantified bodies and both
// sides of implications included; comparison-only subformulas
// contribute no predicates).
func ForQuery(s *core.System, id core.PeerID, q foquery.Formula, transitive bool) (*Slice, error) {
	return Compute(s, id, foquery.Preds(q), transitive)
}

// entry is one constraint of the pool together with the predicates that
// are mutable in the repair stage enforcing it.
type entry struct {
	dep     *constraint.Dependency
	mutable map[string]bool
}

// Compute derives the relevance slice for queries over queryPreds posed
// to peer id. The closure is seeded with every relation of the peer
// plus queryPreds; see the package comment for the algorithm and its
// soundness conditions.
func Compute(s *core.System, id core.PeerID, queryPreds []string, transitive bool) (*Slice, error) {
	p, ok := s.Peer(id)
	if !ok {
		return nil, fmt.Errorf("slice: unknown peer %s", id)
	}
	pool, err := constraintPool(s, id, transitive)
	if err != nil {
		return nil, err
	}

	rels := map[string]bool{}
	for _, rel := range p.Schema.Relations() {
		rels[rel] = true
	}
	for _, pred := range queryPreds {
		if _, ok := s.Owner(pred); !ok {
			return nil, fmt.Errorf("slice: query relation %s is not declared by any peer", pred)
		}
		rels[pred] = true
	}

	keep := map[*constraint.Dependency]bool{}
	var kept []entry
	full := false
	for changed := true; changed; {
		changed = false
		for _, e := range pool {
			if keep[e.dep] {
				continue
			}
			if !isGuard(e) && !touches(e.dep, rels) {
				continue
			}
			keep[e.dep] = true
			kept = append(kept, e)
			changed = true
			for pred := range e.dep.Preds() {
				rels[pred] = true
			}
			if domainDependent(e) {
				full = true
			}
		}
	}

	total := 0
	for _, qid := range s.Peers() {
		qp, _ := s.Peer(qid)
		total += len(qp.Schema.Relations())
	}
	sl := &Slice{
		Root:       id,
		Transitive: transitive,
		Full:       full,
		KeptDeps:   len(keep),
		TotalDeps:  len(pool),
		TotalRels:  total,
		keep:       keep,
		relsByPeer: map[core.PeerID][]string{},
	}
	if full {
		// Degenerate slice: every relation is (potentially) relevant,
		// and the engines enforce the whole pool.
		kept = pool
		rels = map[string]bool{}
		for _, qid := range s.Peers() {
			qp, _ := s.Peer(qid)
			for _, rel := range qp.Schema.Relations() {
				rels[rel] = true
			}
		}
	}
	sl.relSet = rels
	for rel := range rels {
		sl.Rels = append(sl.Rels, rel)
	}
	sort.Strings(sl.Rels)
	for _, rel := range sl.Rels {
		owner, ok := s.Owner(rel)
		if !ok {
			return nil, fmt.Errorf("slice: relation %s has no owner", rel)
		}
		sl.relsByPeer[owner] = append(sl.relsByPeer[owner], rel)
	}
	sl.Signature = signature(sl, kept)
	return sl, nil
}

// constraintPool assembles the constraints the unsliced engines would
// enforce, each with the mutable-predicate set of its repair stage:
// the direct two-stage semantics of Definition 4 (the peer's less-trust
// DECs and ICs against the peer's own relations; its same-trust DECs
// against the peer's and the equally-trusted peers' relations), or the
// per-peer fragments of the Section 4.3 combined program.
func constraintPool(s *core.System, id core.PeerID, transitive bool) ([]entry, error) {
	var pool []entry
	add := func(p *core.Peer, includeSame bool) {
		mut := map[string]bool{}
		for _, rel := range p.Schema.Relations() {
			mut[rel] = true
		}
		mutSame := mut
		if includeSame {
			mutSame = map[string]bool{}
			for rel := range mut {
				mutSame[rel] = true
			}
			for _, q := range s.TrustedPeers(p.ID, core.TrustSame) {
				qp, _ := s.Peer(q)
				for _, rel := range qp.Schema.Relations() {
					mutSame[rel] = true
				}
			}
		}
		for _, q := range s.TrustedPeers(p.ID, core.TrustLess) {
			for _, d := range p.DECs[q] {
				pool = append(pool, entry{dep: d, mutable: mut})
			}
		}
		if includeSame {
			for _, q := range s.TrustedPeers(p.ID, core.TrustSame) {
				for _, d := range p.DECs[q] {
					pool = append(pool, entry{dep: d, mutable: mutSame})
				}
			}
		}
		for _, ic := range p.ICs {
			pool = append(pool, entry{dep: ic, mutable: mut})
		}
	}
	if !transitive {
		p, _ := s.Peer(id)
		add(p, true)
		return pool, nil
	}
	// Transitive: every trust-reachable peer with DECs contributes its
	// fragment (BuildTransitive skips DEC-less leaves; their ICs are not
	// compiled either, so they do not enter the pool). Reachability is a
	// plain BFS — cycles are rejected later by the program builder.
	seen := map[core.PeerID]bool{id: true}
	queue := []core.PeerID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		p, ok := s.Peer(cur)
		if !ok {
			return nil, fmt.Errorf("slice: unknown peer %s reached via trust edges", cur)
		}
		if len(p.DECs) > 0 {
			add(p, cur == id)
		}
		for _, lvl := range []core.TrustLevel{core.TrustLess, core.TrustSame} {
			for _, q := range s.TrustedPeers(cur, lvl) {
				if len(p.DECs[q]) > 0 && !seen[q] {
					seen[q] = true
					queue = append(queue, q)
				}
			}
		}
	}
	return pool, nil
}

// touches reports whether the dependency mentions a relation of the
// closure.
func touches(d *constraint.Dependency, rels map[string]bool) bool {
	for pred := range d.Preds() {
		if rels[pred] {
			return true
		}
	}
	return false
}

// isGuard reports whether the dependency has no mutable predicate: a
// violation then admits no repair action, eliminating every solution of
// the peer, so the constraint is relevant to every query.
func isGuard(e entry) bool {
	for pred := range e.dep.Preds() {
		if e.mutable[pred] {
			return false
		}
	}
	return true
}

// domainDependent reports whether repairing the dependency may draw
// witnesses from the active domain: a TGD with existential variables
// where either no head atom sits on a fixed predicate (the LP builder
// then uses dom/1 facts over the whole active domain) or some
// existential variable occurs in no fixed-predicate head atom (the
// repair engine then enumerates the active domain for it). Such a
// constraint observes constants of arbitrary relations, so the slice
// must degrade to Full.
func domainDependent(e entry) bool {
	if !e.dep.IsTGD() || len(e.dep.ExVars) == 0 {
		return false
	}
	bound := map[string]bool{}
	fixedHeads := 0
	for _, h := range e.dep.Head {
		if e.mutable[h.Pred] {
			continue
		}
		fixedHeads++
		for _, v := range h.Vars(nil) {
			bound[v] = true
		}
	}
	if fixedHeads == 0 {
		return true
	}
	for _, v := range e.dep.ExVars {
		if !bound[v] {
			return true
		}
	}
	return false
}

// signature renders the slice canonically: root, semantics, relations,
// the names of the enforced constraints and a digest of what each one
// enforces, its rendering and the predicates its repair stage may
// change. The digest follows a constraint replaced under the same name
// and a trust change, which moves a DEC between the less- and the
// same-trust stage without renaming it; hashing it keeps the answer
// keys that embed the signature short.
func signature(sl *Slice, kept []entry) string {
	names := make([]string, 0, len(kept))
	enforced := make([]string, 0, len(kept))
	for _, e := range kept {
		var mut []string
		for pred := range e.dep.Preds() {
			if e.mutable[pred] {
				mut = append(mut, pred)
			}
		}
		sort.Strings(mut)
		names = append(names, e.dep.Name)
		enforced = append(enforced, e.dep.Name+"{"+e.dep.String()+"}"+strings.Join(mut, ","))
	}
	sort.Strings(names)
	sort.Strings(enforced)
	h := fnv.New64a()
	for _, d := range enforced {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "root=%s;transitive=%v;full=%v;rels=%s;deps=%s;enforced=%016x",
		sl.Root, sl.Transitive, sl.Full, strings.Join(sl.Rels, ","), strings.Join(names, ","), h.Sum64())
	return b.String()
}

// DataFingerprint hashes the content of the slice's relations. Two
// systems with the same fingerprint agree on every relation the sliced
// pipeline can observe, so answers keyed by (signature, fingerprint)
// stay valid across changes to irrelevant relations.
//
// The fingerprint is incremental: it composes the per-relation content
// hashes cached on the owning instances (relation.Instance.RelHash,
// keyed by the relation's mutation generation), so fingerprinting a
// query over unchanged data costs one cached-hash probe per relevant
// relation instead of rehashing every tuple per query; an update
// re-hashes only the touched relation.
func DataFingerprint(s *core.System, sl *Slice) (string, error) {
	hashes := make([]uint64, len(sl.Rels))
	for i, rel := range sl.Rels {
		owner, ok := s.Owner(rel)
		if !ok {
			return "", fmt.Errorf("slice: relation %s has no owner", rel)
		}
		p, _ := s.Peer(owner)
		hashes[i] = p.Inst.RelHash(rel)
	}
	return Fingerprint(sl, hashes), nil
}

// Fingerprint composes per-relation content hashes into the slice's
// data fingerprint: relHashes[i] is the RelHash of sl.Rels[i].
// DataFingerprint reads those hashes off a system; a caller that holds
// them by other means (peernet's warm-hit probe) gets a byte-identical
// fingerprint.
func Fingerprint(sl *Slice, relHashes []uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	for i, rel := range sl.Rels {
		h.Write([]byte(rel))
		h.Write([]byte{0})
		binary.BigEndian.PutUint64(buf[:], relHashes[i])
		h.Write(buf[:])
		h.Write([]byte{2})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
