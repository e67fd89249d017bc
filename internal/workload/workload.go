// Package workload generates synthetic P2P data exchange systems with
// controlled size and inconsistency, the quantities that drive the cost
// of peer consistent query answering (the paper's semantics is Π^p_2 in
// data complexity; the number of independent conflicts controls the
// number of solutions). No real 2004 peer datasets exist, so these
// generators stand in for the evaluation workloads a systems paper
// would have used; every benchmark (bench_test.go, cmd/p2pbench) states
// which generator and parameters it uses.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/term"
)

// Example1Shaped builds a P1/P2/P3 system with the Example 1 DEC shape
// (inclusion import from P2, key EGD against P3):
//
//   - cleanFacts: r1 tuples with unique keys and no conflicts;
//   - imports: r2 tuples absent from r1 (each forces one import);
//   - conflicts: r1/r3 key collisions with different values (each
//     yields an independent binary repair choice, doubling the number
//     of solutions).
//
// Keys are disjoint across the three groups so the counts are exact.
func Example1Shaped(cleanFacts, imports, conflicts int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	p1 := core.NewPeer("P1").Declare("r1", 2).
		SetTrust("P2", core.TrustLess).SetTrust("P3", core.TrustSame).
		AddDEC("P2", constraint.Inclusion("inc", "r2", "r1", 2)).
		AddDEC("P3", constraint.KeyEGD("egd", "r1", "r3"))
	p2 := core.NewPeer("P2").Declare("r2", 2)
	p3 := core.NewPeer("P3").Declare("r3", 2)
	for i := 0; i < cleanFacts; i++ {
		p1.Fact("r1", fmt.Sprintf("k%d", i), val(rng))
	}
	for i := 0; i < imports; i++ {
		p2.Fact("r2", fmt.Sprintf("m%d", i), val(rng))
	}
	for i := 0; i < conflicts; i++ {
		key := fmt.Sprintf("c%d", i)
		p1.Fact("r1", key, "v1")
		p3.Fact("r3", key, "v2")
	}
	return core.NewSystem().MustAddPeer(p1).MustAddPeer(p2).MustAddPeer(p3)
}

// ReferentialShaped builds a Section-3.1-shaped system: peer P with
// {r1, r2}, peer Q with {s1, s2}, DEC (3), (P, less, Q):
//
//   - violations: r1/s1 pairs with no witness in r2×s2;
//   - witnesses: s2 tuples per violation key (each violation then has
//     witnesses+1 repairs: delete or insert one of the witnesses);
//   - satisfied: r1/s1 pairs already witnessed in r2×s2.
func ReferentialShaped(violations, witnesses, satisfied int, seed int64) *core.System {
	_ = seed
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2"))
	q := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2)
	for i := 0; i < violations; i++ {
		y := fmt.Sprintf("y%d", i)
		p.Fact("r1", fmt.Sprintf("x%d", i), y)
		q.Fact("s1", fmt.Sprintf("z%d", i), y)
		for w := 0; w < witnesses; w++ {
			q.Fact("s2", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d_%d", i, w))
		}
	}
	for i := 0; i < satisfied; i++ {
		y := fmt.Sprintf("sy%d", i)
		x := fmt.Sprintf("sx%d", i)
		z := fmt.Sprintf("sz%d", i)
		w := fmt.Sprintf("sw%d", i)
		p.Fact("r1", x, y)
		q.Fact("s1", z, y)
		p.Fact("r2", x, w)
		q.Fact("s2", z, w)
	}
	return core.NewSystem().MustAddPeer(p).MustAddPeer(q)
}

// Chain builds a transitive import chain of depth peers:
// P0 ← P1 ← ... ← P(depth-1), each peer trusting the next more and
// importing its relation, with factsPerPeer facts at every level
// (Section 4.3 workloads).
func Chain(depth, factsPerPeer int, seed int64) *core.System {
	if depth < 1 {
		panic("workload: Chain depth must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	s := core.NewSystem()
	for i := 0; i < depth; i++ {
		id := core.PeerID(fmt.Sprintf("P%d", i))
		rel := fmt.Sprintf("t%d", i)
		p := core.NewPeer(id).Declare(rel, 2)
		for j := 0; j < factsPerPeer; j++ {
			p.Fact(rel, fmt.Sprintf("p%d_k%d", i, j), val(rng))
		}
		if i+1 < depth {
			next := core.PeerID(fmt.Sprintf("P%d", i+1))
			p.SetTrust(next, core.TrustLess)
			p.AddDEC(next, constraint.Inclusion(
				fmt.Sprintf("inc%d", i), fmt.Sprintf("t%d", i+1), rel, 2))
		}
		s.MustAddPeer(p)
	}
	return s
}

// IndependentConflicts builds a two-peer system with k independent
// same-trust EGD conflicts: the peer has exactly 2^k solutions,
// exhibiting the exponential blow-up behind the Π^p_2 data complexity
// (benchmark B2).
func IndependentConflicts(k int) *core.System {
	p1 := core.NewPeer("A").Declare("ra", 2).
		SetTrust("B", core.TrustSame).
		AddDEC("B", constraint.KeyEGD("egd", "ra", "rb"))
	p2 := core.NewPeer("B").Declare("rb", 2)
	for i := 0; i < k; i++ {
		key := fmt.Sprintf("k%d", i)
		p1.Fact("ra", key, "u")
		p2.Fact("rb", key, "v")
	}
	return core.NewSystem().MustAddPeer(p1).MustAddPeer(p2)
}

// ScatteredConflicts builds a two-peer system with k independent
// same-trust EGD conflicts scattered across k disjoint relation pairs:
// peer A declares ra0..ra{k-1}, each holding cleanPerRel clean facts
// plus one conflicting key, and peer B declares rb0..rb{k-1} with the
// opposing value for that key. The peer has 2^k solutions, but the
// conflicts are pairwise independent — no shared facts, no TGD
// cascades — so the conflict-localized repair engine decomposes the
// search into k trivial components and a query over a single relation
// observes exactly one of them (benchmark B10); the global wave search
// pays the full 2^k enumeration.
func ScatteredConflicts(k, cleanPerRel int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	pa := core.NewPeer("A").SetTrust("B", core.TrustSame)
	pb := core.NewPeer("B")
	for i := 0; i < k; i++ {
		ra := fmt.Sprintf("ra%d", i)
		rb := fmt.Sprintf("rb%d", i)
		pa.Declare(ra, 2)
		pb.Declare(rb, 2)
		pa.AddDEC("B", constraint.KeyEGD(fmt.Sprintf("egd%d", i), ra, rb))
		for j := 0; j < cleanPerRel; j++ {
			pa.Fact(ra, fmt.Sprintf("k%d_%d", i, j), val(rng))
		}
		key := fmt.Sprintf("c%d", i)
		pa.Fact(ra, key, "u")
		pb.Fact(rb, key, "v")
	}
	return core.NewSystem().MustAddPeer(pa).MustAddPeer(pb)
}

// ChurnUniverse is the incremental-maintenance benchmark workload
// (B14): ScatteredConflicts plus a chain of never-violated link EGDs
// ln_i between ra_i and rb_{i+1} (the key spaces are disjoint by
// construction, so the links add no violations and no repair work).
// The links matter at the spec level only: the query slice for
// ra0(X,Y) walks them and pulls in every relation pair, so a write to
// ANY ra_i moves the ra0 slice fingerprint and forces the
// content-addressed answer cache to evict — while the conflict
// components stay pairwise scattered, so the incremental engine
// re-searches only the touched component and reuses the rest. This is
// exactly the regime where delta-driven repair beats
// evict-and-recompute; in plain ScatteredConflicts the slice prunes
// foreign writes away and the answer cache alone absorbs them.
func ChurnUniverse(k, cleanPerRel int, seed int64) *core.System {
	s := ScatteredConflicts(k, cleanPerRel, seed)
	pa, _ := s.Peer("A")
	for i := 0; i+1 < k; i++ {
		pa.AddDEC("B", constraint.KeyEGD(fmt.Sprintf("ln%d", i),
			fmt.Sprintf("ra%d", i), fmt.Sprintf("rb%d", i+1)))
	}
	return s
}

// WideUniverse builds an overlay whose query-relevant core is tiny
// while the universe is wide — the workload where query-relevance
// slicing (internal/slice) pays off. Root peer P0 declares q0 (the
// query target) and imports it from peer PC's c0 via an inclusion DEC
// (TrustLess, so missing tuples are forced imports). Additionally,
// `width` bystander peers B0..B{width-1} each declare `relsPerPeer`
// binary relations with `factsPerRel` facts, and the root maintains a
// same-trust key EGD between each bystander's first two relations —
// a repairable constraint mentioning no root relation, which the slice
// for q0 drops, so a sliced snapshot never moves bystander data. The
// first `conflictPeers` bystanders get one key conflict each, so the
// full (unsliced) pipeline branches into 2^conflictPeers solutions
// while the sliced one never sees the conflicts.
func WideUniverse(width, relsPerPeer, factsPerRel, conflictPeers int, seed int64) *core.System {
	if relsPerPeer < 2 {
		panic("workload: WideUniverse needs relsPerPeer >= 2")
	}
	if conflictPeers > width {
		conflictPeers = width
	}
	rng := rand.New(rand.NewSource(seed))
	root := core.NewPeer("P0").Declare("q0", 2).
		SetTrust("PC", core.TrustLess).
		AddDEC("PC", constraint.Inclusion("inc_core", "c0", "q0", 2))
	pc := core.NewPeer("PC").Declare("c0", 2)
	for i := 0; i < 4; i++ {
		root.Fact("q0", fmt.Sprintf("k%d", i), val(rng))
	}
	for i := 0; i < 3; i++ {
		pc.Fact("c0", fmt.Sprintf("m%d", i), val(rng))
	}
	s := core.NewSystem().MustAddPeer(root).MustAddPeer(pc)
	for b := 0; b < width; b++ {
		id := core.PeerID(fmt.Sprintf("B%d", b))
		peer := core.NewPeer(id)
		rels := make([]string, relsPerPeer)
		for r := 0; r < relsPerPeer; r++ {
			rels[r] = fmt.Sprintf("b%d_r%d", b, r)
			peer.Declare(rels[r], 2)
			// Keys are disjoint across a bystander's relations, so the
			// only EGD conflict is the one conflictPeers plants.
			for f := 0; f < factsPerRel; f++ {
				peer.Fact(rels[r], fmt.Sprintf("b%d_r%d_k%d", b, r, f), val(rng))
			}
		}
		if b < conflictPeers {
			key := fmt.Sprintf("b%d_c", b)
			peer.Fact(rels[0], key, "u")
			peer.Fact(rels[1], key, "v")
		}
		root.SetTrust(id, core.TrustSame)
		root.AddDEC(id, constraint.KeyEGD(fmt.Sprintf("egd_b%d", b), rels[0], rels[1]))
		s.MustAddPeer(peer)
	}
	return s
}

// DelegationFanout builds the delegated-answering showcase overlay
// (benchmark B11): root P0 imports s_i from `hubs` hub peers H_i via
// inclusion DECs (TrustLess), and every hub filters its s_i against a
// large private relation d_i of a leaf peer L_i it trusts more, via the
// one-mutable-atom denial
//
//	s_i(x,y) ∧ d_i(x,z) → false
//
// (delete the flagged s_i rows — a forced repair, so the exactness gate
// of slice.PlanDelegation admits delegation). Each hub holds rowsPerHub
// clean rows plus flaggedPerHub rows whose keys appear in d_i; each
// leaf additionally holds noisePerLeaf unrelated d_i rows. A
// centralized snapshot must move every s_i AND every d_i to the root
// (the denial is in the slice), while delegation moves only the
// filtered s_i answer sets — the hubs read their leaves themselves.
func DelegationFanout(hubs, rowsPerHub, flaggedPerHub, noisePerLeaf int, seed int64) *core.System {
	if hubs < 1 {
		panic("workload: DelegationFanout needs hubs >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	root := core.NewPeer("P0").Declare("r0", 2)
	for i := 0; i < 2; i++ {
		root.Fact("r0", fmt.Sprintf("r0_k%d", i), val(rng))
	}
	s := core.NewSystem().MustAddPeer(root)
	for h := 0; h < hubs; h++ {
		hid := core.PeerID(fmt.Sprintf("H%d", h))
		lid := core.PeerID(fmt.Sprintf("L%d", h))
		si := fmt.Sprintf("s%d", h)
		di := fmt.Sprintf("d%d", h)
		root.SetTrust(hid, core.TrustLess).
			AddDEC(hid, constraint.Inclusion(fmt.Sprintf("imp%d", h), si, "r0", 2))
		hub := core.NewPeer(hid).Declare(si, 2).
			SetTrust(lid, core.TrustLess).
			AddDEC(lid, &constraint.Dependency{
				Name: fmt.Sprintf("flag%d", h),
				Body: []term.Atom{
					{Pred: si, Args: []term.Term{term.V("X"), term.V("Y")}},
					{Pred: di, Args: []term.Term{term.V("X"), term.V("Z")}},
				},
			})
		leaf := core.NewPeer(lid).Declare(di, 2)
		for r := 0; r < rowsPerHub; r++ {
			hub.Fact(si, fmt.Sprintf("h%d_k%d", h, r), val(rng))
		}
		for f := 0; f < flaggedPerHub; f++ {
			key := fmt.Sprintf("h%d_f%d", h, f)
			hub.Fact(si, key, val(rng))
			leaf.Fact(di, key, "flag")
		}
		for x := 0; x < noisePerLeaf; x++ {
			leaf.Fact(di, fmt.Sprintf("l%d_x%d", h, x), val(rng))
		}
		s.MustAddPeer(hub).MustAddPeer(leaf)
	}
	return s
}

// LargeUniverse builds a production-scale universe (10^5-10^6 facts)
// for the columnar memory plane benchmark (B12). The query-relevant
// core is a single wide relation: root peer P0 holds coreFacts clean q0
// tuples plus `conflicts` planted key conflicts against peer PK's k0
// (same trust, key EGD — each conflict is an independent binary repair
// choice, and the conflict-localized engine decomposes them). The rest
// of the universe is bulk: bystander peer PB declares bulkRels
// relations with bulkFactsPerRel facts each, tied to the root only by a
// same-trust EGD between its first two relations — repairable but
// irrelevant to q0, so the query slice drops every bulk relation while
// the unsliced instance still carries them through every clone. The
// repair+answer hot path over this universe is dominated by per-tuple
// storage overhead, which is what the packed-segment storage and
// copy-on-write cloning attack.
//
// Total facts = coreFacts + 2*conflicts + bulkRels*bulkFactsPerRel.
func LargeUniverse(coreFacts, conflicts, bulkRels, bulkFactsPerRel int, seed int64) *core.System {
	if bulkRels < 2 {
		panic("workload: LargeUniverse needs bulkRels >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	root := core.NewPeer("P0").Declare("q0", 2).
		SetTrust("PK", core.TrustSame).
		AddDEC("PK", constraint.KeyEGD("egd_core", "q0", "k0"))
	pk := core.NewPeer("PK").Declare("k0", 2)
	for i := 0; i < coreFacts; i++ {
		root.Fact("q0", fmt.Sprintf("k%d", i), val(rng))
	}
	for i := 0; i < conflicts; i++ {
		key := fmt.Sprintf("c%d", i)
		root.Fact("q0", key, "u")
		pk.Fact("k0", key, "v")
	}
	pb := core.NewPeer("PB")
	rels := make([]string, bulkRels)
	for r := 0; r < bulkRels; r++ {
		rels[r] = fmt.Sprintf("bulk%d", r)
		pb.Declare(rels[r], 2)
		for f := 0; f < bulkFactsPerRel; f++ {
			pb.Fact(rels[r], fmt.Sprintf("bulk%d_k%d", r, f), val(rng))
		}
	}
	root.SetTrust("PB", core.TrustSame)
	root.AddDEC("PB", constraint.KeyEGD("egd_bulk", rels[0], rels[1]))
	return core.NewSystem().MustAddPeer(root).MustAddPeer(pk).MustAddPeer(pb)
}

func val(rng *rand.Rand) string { return fmt.Sprintf("v%d", rng.Intn(1000)) }

// StreamOp is one operation of a serving-plane workload stream: a
// query (Query/Vars) or a fact insert (Peer/Rel/Tuple).
type StreamOp struct {
	// Write marks an insert; otherwise the op is a query.
	Write bool
	// Peer, Rel and Tuple describe the write target.
	Peer  core.PeerID
	Rel   string
	Tuple []string
	// Query and Vars describe the read.
	Query string
	Vars  []string
}

// ChurnStream derives the deterministic write/query lockstep schedule
// of the incremental re-answering benchmark (B14) over a
// ScatteredConflicts(k, ...) system: step i inserts one fresh-keyed
// fact into root relation ra{1 + i mod (k-1)} and then re-issues the
// fixed query ra0(X,Y). Every write moves the data fingerprint of the
// query's slice — evicting a purely content-addressed answer cache —
// but touches only a conflict component disjoint from the queried
// relation, which is exactly the shape the delta-driven incremental
// path patches instead of recomputing. Keys depend only on the step
// index, so replaying the stream is deterministic.
func ChurnStream(k, steps int, seed int64) []StreamOp {
	if k < 2 {
		panic("workload: ChurnStream needs a ScatteredConflicts shape (k >= 2)")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]StreamOp, 0, 2*steps)
	for i := 0; i < steps; i++ {
		rel := fmt.Sprintf("ra%d", 1+i%(k-1))
		out = append(out,
			StreamOp{Write: true, Peer: "A", Rel: rel,
				Tuple: []string{fmt.Sprintf("w%d", i), val(rng)}},
			StreamOp{Query: "ra0(X,Y)", Vars: []string{"X", "Y"}})
	}
	return out
}

// MixedStream derives the deterministic interleaved read/write stream
// of the sustained-throughput benchmark (B13) over a
// WideUniverse(width, relsPerPeer, ...) system. Reads cycle randomly
// through a small set of query shapes over the root's q0 — the repeats
// are what make the answer cache and in-flight coalescing observable.
// Every writeEvery-th op is a write, alternating between fresh q0
// facts at the root (relevant: the fingerprint moves and the fact must
// be visible to the next read) and fresh facts in the last bystander's
// last relation (irrelevant to the q0 slice: the content-addressed
// answer cache must keep serving hits across it). Write keys depend
// only on the op index, so replaying the stream re-inserts the same
// facts — an idempotent steady state.
func MixedStream(width, relsPerPeer, ops, writeEvery int, seed int64) []StreamOp {
	if width < 1 || relsPerPeer < 2 {
		panic("workload: MixedStream needs a WideUniverse shape (width >= 1, relsPerPeer >= 2)")
	}
	rng := rand.New(rand.NewSource(seed))
	queries := []StreamOp{
		{Query: "q0(X,Y)", Vars: []string{"X", "Y"}},
		{Query: "q0(k0,Y)", Vars: []string{"Y"}},
		{Query: "q0(X,Y)", Vars: []string{"X"}},
	}
	bystander := core.PeerID(fmt.Sprintf("B%d", width-1))
	bystanderRel := fmt.Sprintf("b%d_r%d", width-1, relsPerPeer-1)
	out := make([]StreamOp, 0, ops)
	writes := 0
	for i := 0; i < ops; i++ {
		if writeEvery > 0 && i%writeEvery == writeEvery-1 {
			writes++
			if writes%2 == 1 {
				out = append(out, StreamOp{Write: true, Peer: "P0", Rel: "q0",
					Tuple: []string{fmt.Sprintf("w%d", writes), val(rng)}})
			} else {
				out = append(out, StreamOp{Write: true, Peer: bystander, Rel: bystanderRel,
					Tuple: []string{fmt.Sprintf("bw%d", writes), val(rng)}})
			}
			continue
		}
		out = append(out, queries[rng.Intn(len(queries))])
	}
	return out
}
