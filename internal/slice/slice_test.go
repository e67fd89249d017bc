package slice

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/sysdsl"
	"repro/internal/workload"
)

func mustCompute(t *testing.T, s *core.System, id core.PeerID, query string, transitive bool) *Slice {
	t.Helper()
	sl, err := ForQuery(s, id, foquery.MustParse(query), transitive)
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

// TestExample1Slice: every relation of Example 1 participates in a
// constraint with r1, so the slice for r1(X,Y) keeps everything.
func TestExample1Slice(t *testing.T) {
	sl := mustCompute(t, core.Example1System(), "P1", "r1(X,Y)", false)
	for _, rel := range []string{"r1", "r2", "r3"} {
		if !sl.Has(rel) {
			t.Errorf("slice should contain %s: %v", rel, sl.Rels)
		}
	}
	if sl.KeptDeps != sl.TotalDeps {
		t.Errorf("all constraints touch r1; kept %d/%d", sl.KeptDeps, sl.TotalDeps)
	}
	if sl.Full {
		t.Error("Example 1 has no domain-dependent constraint; slice must not be Full")
	}
}

// TestBystanderDropped: a same-trust constraint over only a
// neighbour's relations is repairable and disjoint from the query, so
// it is dropped and its relations stay out of the slice.
func TestBystanderDropped(t *testing.T) {
	s := workload.WideUniverse(3, 2, 2, 1, 1)
	sl := mustCompute(t, s, "P0", "q0(X,Y)", false)
	if !sl.Has("q0") || !sl.Has("c0") {
		t.Fatalf("core relations missing from slice: %v", sl.Rels)
	}
	for _, rel := range []string{"b0_r0", "b0_r1", "b1_r0", "b2_r1"} {
		if sl.Has(rel) {
			t.Errorf("bystander relation %s should be out of the slice", rel)
		}
	}
	if sl.KeptDeps != 1 {
		t.Errorf("only inc_core should be kept, got %d/%d", sl.KeptDeps, sl.TotalDeps)
	}
	if got := sl.RemoteRelCount(); got != 1 {
		t.Errorf("RemoteRelCount = %d, want 1 (c0)", got)
	}
	if peers := sl.RemotePeers(); len(peers) != 1 || peers[0] != "PC" {
		t.Errorf("RemotePeers = %v, want [PC]", peers)
	}
}

// TestGuardKept: a less-trust DEC over only the neighbour's relations
// has no repair action (all its predicates are fixed in stage 1); a
// violation would eliminate every solution, so the slice must keep it
// even though it shares no relation with the query.
func TestGuardKept(t *testing.T) {
	p := core.NewPeer("P").Declare("mine", 2).
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.KeyEGD("guard", "qa", "qb"))
	q := core.NewPeer("Q").Declare("qa", 2).Declare("qb", 2)
	s := core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	sl := mustCompute(t, s, "P", "mine(X,Y)", false)
	if sl.KeptDeps != 1 {
		t.Fatalf("guard constraint must be kept, got %d kept", sl.KeptDeps)
	}
	if !sl.Has("qa") || !sl.Has("qb") {
		t.Fatalf("guard relations must be fetched: %v", sl.Rels)
	}
}

// TestNegatedSubformulaInSlice: a relation reachable only through a
// negated subformula of the query must land in the slice seeds.
func TestNegatedSubformulaInSlice(t *testing.T) {
	p := core.NewPeer("P").Declare("r1", 2).Declare("r1b", 2).
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Inclusion("inc", "s1", "r1", 2))
	q := core.NewPeer("Q").Declare("s1", 2)
	s := core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	sl := mustCompute(t, s, "P", "r1(X,Y) & !r1b(Y,X)", false)
	for _, rel := range []string{"r1", "r1b", "s1"} {
		if !sl.Has(rel) {
			t.Errorf("slice misses %s: %v", rel, sl.Rels)
		}
	}
}

// TestComparisonOnlyQuery: comparison-only subformulas contribute no
// predicates; the slice still seeds with the peer's schema and must
// not fail.
func TestComparisonOnlyQuery(t *testing.T) {
	s := core.Example1System()
	sl, err := Compute(s, "P1", foquery.Preds(foquery.MustParse("r1(X,Y) & X != Y")), false)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Has("r1") {
		t.Fatalf("slice misses r1: %v", sl.Rels)
	}
	if preds := foquery.Preds(foquery.MustParse("X != Y")); len(preds) != 0 {
		t.Fatalf("comparison-only formula has predicates: %v", preds)
	}
}

// TestTransitiveMappingReachable: in the transitive case a relation
// reachable only through a chain of import mappings must land in the
// slice — and a side branch hanging off the chain must not.
func TestTransitiveMappingReachable(t *testing.T) {
	s := workload.Chain(4, 2, 1)
	sl := mustCompute(t, s, "P0", "t0(X,Y)", true)
	for _, rel := range []string{"t0", "t1", "t2", "t3"} {
		if !sl.Has(rel) {
			t.Errorf("transitively mapped relation %s missing: %v", rel, sl.Rels)
		}
	}
	if sl.KeptDeps != 3 {
		t.Errorf("all three chain inclusions should be kept, got %d/%d", sl.KeptDeps, sl.TotalDeps)
	}

	// Side branch: P1 additionally maintains a repairable same-trust EGD
	// with a bystander peer; the t0 slice must drop it.
	s2 := workload.Chain(3, 2, 1)
	p1, _ := s2.Peer("P1")
	side := core.NewPeer("SIDE").Declare("sa", 2).Declare("sb", 2)
	p1.SetTrust("SIDE", core.TrustSame)
	p1.AddDEC("SIDE", constraint.KeyEGD("side_egd", "sa", "sb"))
	s2.MustAddPeer(side)
	sl2 := mustCompute(t, s2, "P0", "t0(X,Y)", true)
	if sl2.Has("sa") || sl2.Has("sb") {
		t.Errorf("side-branch relations leaked into the slice: %v", sl2.Rels)
	}
}

// TestDomainDependentForcesFull: a referential DEC without fixed
// witness providers draws witnesses from the active domain, so a slice
// that keeps it degrades to Full.
func TestDomainDependentForcesFull(t *testing.T) {
	d, err := sysdsl.ParseConstraint("ref_dom", "r1(X,Y) -> exists W: r2(X,W)")
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", d)
	q := core.NewPeer("Q").Declare("s1", 2)
	s := core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	sl := mustCompute(t, s, "P", "r1(X,Y)", false)
	if !sl.Full {
		t.Fatal("domain-dependent constraint must force a Full slice")
	}
	if sl.RelevantRels() != nil {
		t.Fatal("Full slice must report no relation restriction")
	}
	if !sl.Has("s1") {
		t.Fatal("Full slice must cover every relation")
	}
}

// TestSignatureAndFingerprint: the signature identifies the projection;
// the fingerprint tracks relevant data only.
func TestSignatureAndFingerprint(t *testing.T) {
	build := func() *core.System { return workload.WideUniverse(2, 2, 2, 0, 1) }
	s1, s2 := build(), build()
	sl1 := mustCompute(t, s1, "P0", "q0(X,Y)", false)
	sl2 := mustCompute(t, s2, "P0", "q0(X,Y)", false)
	if sl1.Signature != sl2.Signature {
		t.Fatalf("signatures differ for identical systems:\n%s\n%s", sl1.Signature, sl2.Signature)
	}
	fp1, err := DataFingerprint(s1, sl1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := DataFingerprint(s2, sl2)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("fingerprints differ for identical relevant data")
	}
	// Irrelevant update: fingerprint unchanged.
	b0, _ := s2.Peer("B0")
	b0.Fact("b0_r0", "zz", "zz")
	fp3, err := DataFingerprint(s2, sl2)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Fatal("irrelevant update changed the fingerprint")
	}
	// Relevant update: fingerprint moves.
	pc, _ := s2.Peer("PC")
	pc.Fact("c0", "zz", "zz")
	fp4, err := DataFingerprint(s2, sl2)
	if err != nil {
		t.Fatal(err)
	}
	if fp4 == fp1 {
		t.Fatal("relevant update did not change the fingerprint")
	}
}

// TestSignatureTracksSemantics: the signature is part of the answer
// key, so every spec change that can change answers must move it, even
// when the kept constraints keep their names: a trust change (the DEC
// moves from the less- to the same-trust stage, making the neighbour's
// relation mutable) and a constraint replaced under the same name.
func TestSignatureTracksSemantics(t *testing.T) {
	base := mustCompute(t, core.Example1System(), "P1", "r1(X,Y)", false).Signature
	trust := core.Example1System()
	p1, _ := trust.Peer("P1")
	p1.SetTrust("P2", core.TrustSame)
	if sig := mustCompute(t, trust, "P1", "r1(X,Y)", false).Signature; sig == base {
		t.Fatalf("a trust change left the signature at %s", sig)
	}
	replaced := core.Example1System()
	p1, _ = replaced.Peer("P1")
	// Same name, predicates and stage; only what it enforces differs.
	p1.DECs["P3"][0] = constraint.Inclusion(p1.DECs["P3"][0].Name, "r3", "r1", 2)
	if sig := mustCompute(t, replaced, "P1", "r1(X,Y)", false).Signature; sig == base {
		t.Fatalf("a constraint replaced under its name left the signature at %s", sig)
	}
}

func TestComputeErrors(t *testing.T) {
	s := core.Example1System()
	if _, err := Compute(s, "ZZ", nil, false); err == nil {
		t.Error("unknown peer should fail")
	}
	if _, err := Compute(s, "P1", []string{"nosuchrel"}, false); err == nil {
		t.Error("unknown query relation should fail")
	}
}

func TestAnswerCache(t *testing.T) {
	c := NewAnswerCache(2)
	key := "k1"
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	ans := []relation.Tuple{{"a", "b"}}
	c.Put(key, ans)
	got, ok := c.Get(key)
	if !ok || len(got) != 1 || got[0].Key() != ans[0].Key() {
		t.Fatalf("cache returned %v", got)
	}
	// The returned answers are a deep copy: neither replacing a tuple
	// nor mutating one in place may poison the cache.
	got[0][0] = "poisoned"
	got[0] = relation.Tuple{"x", "y"}
	again, _ := c.Get(key)
	if again[0].Key() != ans[0].Key() {
		t.Fatal("cache entry was mutated through the returned slice")
	}
	// Overflow clears wholesale.
	c.Put("k2", nil)
	c.Put("k3", nil)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("overflowed cache should have been cleared")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 2 hits / 2 misses", hits, misses)
	}
}
