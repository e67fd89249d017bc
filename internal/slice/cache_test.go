package slice

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
)

// TestAnswerCacheLRUHotEntriesSurviveOverflow: overflowing the cache
// evicts only the least recently used entries; a key kept hot by Gets
// survives arbitrarily many insertions past the bound.
func TestAnswerCacheLRUHotEntriesSurviveOverflow(t *testing.T) {
	c := NewAnswerCache(4)
	hot := "hot"
	c.Put(hot, []relation.Tuple{{"h"}})
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("cold%d", i), []relation.Tuple{{fmt.Sprint(i)}})
		if _, ok := c.Get(hot); !ok {
			t.Fatalf("hot entry evicted after %d cold insertions", i+1)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want the bound 4", c.Len())
	}
	// The most recent cold keys survive, the oldest are gone.
	if _, ok := c.Get("cold19"); !ok {
		t.Fatal("most recent cold entry should survive")
	}
	if _, ok := c.Get("cold0"); ok {
		t.Fatal("oldest cold entry should have been evicted")
	}
}

// TestAnswerCacheLRUUpdateRefreshes: re-putting an existing key
// replaces its value and makes it most recently used.
func TestAnswerCacheLRUUpdateRefreshes(t *testing.T) {
	c := NewAnswerCache(2)
	c.Put("a", []relation.Tuple{{"1"}})
	c.Put("b", []relation.Tuple{{"2"}})
	c.Put("a", []relation.Tuple{{"3"}}) // refresh a: b becomes LRU
	c.Put("c", []relation.Tuple{{"4"}}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	got, ok := c.Get("a")
	if !ok || len(got) != 1 || got[0][0] != "3" {
		t.Fatalf("a = %v, want refreshed value", got)
	}
}

// TestAnswerCacheCopies: cached answers are isolated from caller
// mutations in both directions.
func TestAnswerCacheCopies(t *testing.T) {
	c := NewAnswerCache(0)
	orig := []relation.Tuple{{"x", "y"}}
	c.Put("k", orig)
	orig[0][0] = "mutated"
	got, _ := c.Get("k")
	if got[0][0] != "x" {
		t.Fatal("Put must deep-copy")
	}
	got[0][1] = "mutated"
	got2, _ := c.Get("k")
	if got2[0][1] != "y" {
		t.Fatal("Get must deep-copy")
	}
}

// TestDataFingerprintIncremental: the fingerprint is served from cached
// per-relation hashes — repeated fingerprinting leaves every relation
// generation untouched, a relevant update changes the fingerprint, and
// an irrelevant one does not.
func TestDataFingerprintIncremental(t *testing.T) {
	sys := twoPeerSystem(t)
	sl, err := ForQuery(sys, "P", foquery.MustParse("a1(X,Y)"), false)
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := DataFingerprint(sys, sl)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Peer(core.PeerID("P"))
	gen := p.Inst.RelGen("a1")
	fp2, err := DataFingerprint(sys, sl)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %s vs %s", fp1, fp2)
	}
	if p.Inst.RelGen("a1") != gen {
		t.Fatal("fingerprinting must not advance relation generations")
	}
	// Relevant update: generation moves, fingerprint changes.
	p.Fact("a1", "new", "tuple")
	if p.Inst.RelGen("a1") == gen {
		t.Fatal("mutation must advance the relation generation")
	}
	fp3, err := DataFingerprint(sys, sl)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("relevant update must change the fingerprint")
	}
}

// TestFingerprintComposition: DataFingerprint is Fingerprint over the
// owning instances' RelHash values, so a caller holding those hashes
// (peernet's warm-hit probe) rebuilds the same string, and any changed
// hash changes it.
func TestFingerprintComposition(t *testing.T) {
	sys := twoPeerSystem(t)
	sl, err := ForQuery(sys, "P", foquery.MustParse("a1(X,Y)"), false)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, len(sl.Rels))
	for i, rel := range sl.Rels {
		owner, _ := sys.Owner(rel)
		p, _ := sys.Peer(owner)
		hashes[i] = p.Inst.RelHash(rel)
	}
	fp, err := DataFingerprint(sys, sl)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(sl, hashes); got != fp {
		t.Fatalf("Fingerprint = %s, DataFingerprint = %s", got, fp)
	}
	for i := range hashes {
		hashes[i]++
		if Fingerprint(sl, hashes) == fp {
			t.Fatalf("changing the hash of %s left the fingerprint at %s", sl.Rels[i], fp)
		}
		hashes[i]--
	}
}

// TestAnswerCacheProbeCountsHitsOnly: Probe serves a hit like Get (a
// counted hit, a deep copy, LRU refresh) and leaves a miss uncounted,
// so a Probe-then-Get caller counts each lookup once.
func TestAnswerCacheProbeCountsHitsOnly(t *testing.T) {
	c := NewAnswerCache(2)
	if _, ok := c.Probe("a"); ok {
		t.Fatal("empty cache hit")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("probe miss counted: %d hits, %d misses", hits, misses)
	}
	c.Put("a", []relation.Tuple{{"1"}})
	c.Put("b", []relation.Tuple{{"2"}})
	got, ok := c.Probe("a") // refreshes a: b becomes LRU
	if !ok || got[0][0] != "1" {
		t.Fatalf("probe = %v, %v", got, ok)
	}
	got[0][0] = "mutated"
	c.Put("c", []relation.Tuple{{"3"}}) // evicts b
	if again, ok := c.Probe("a"); !ok || again[0][0] != "1" {
		t.Fatalf("probe after eviction = %v, %v; want the untouched entry", again, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2 hits / 1 miss", hits, misses)
	}
}

// TestRelHashCachedPerRelation: hashing twice returns the same value
// without rebuilding (generation-keyed), and a mutation of one relation
// leaves the other relation's cached hash valid.
func TestRelHashCachedPerRelation(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("a", relation.Tuple{"1", "2"})
	in.Insert("b", relation.Tuple{"3", "4"})
	ha, hb := in.RelHash("a"), in.RelHash("b")
	if in.RelHash("a") != ha || in.RelHash("b") != hb {
		t.Fatal("cached hashes must be stable")
	}
	in.Insert("a", relation.Tuple{"5", "6"})
	if in.RelHash("a") == ha {
		t.Fatal("mutating a must change a's hash")
	}
	if in.RelHash("b") != hb {
		t.Fatal("mutating a must not change b's hash")
	}
	// Content equality implies hash equality regardless of history.
	other := relation.NewInstance()
	other.Insert("b", relation.Tuple{"3", "4"})
	if other.RelHash("b") != hb {
		t.Fatal("equal content must hash equally")
	}
}

func twoPeerSystem(t *testing.T) *core.System {
	t.Helper()
	p := core.NewPeer("P").Declare("a1", 2).Fact("a1", "x", "y")
	q := core.NewPeer("Q").Declare("b1", 2).Fact("b1", "u", "v")
	return core.NewSystem().MustAddPeer(p).MustAddPeer(q)
}

// TestAnswerCacheConcurrent hammers one bounded cache from many
// goroutines with overlapping keys — parallel Get/Put with constant
// LRU eviction (the bound is far below the key space). Run under
// -race; the value checks catch cross-key corruption, the isolation
// check catches a Get result aliasing the cached entry.
func TestAnswerCacheConcurrent(t *testing.T) {
	c := NewAnswerCache(16)
	const workers, keys, iters = 8, 64, 400
	valueFor := func(k int) []relation.Tuple {
		return []relation.Tuple{{fmt.Sprintf("k%d", k), "v"}}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*31 + i) % keys
				key := fmt.Sprintf("key%d", k)
				if ans, ok := c.Get(key); ok {
					want := valueFor(k)
					if len(ans) != 1 || !ans[0].Equal(want[0]) {
						t.Errorf("key %s returned %v, want %v", key, ans, want)
						return
					}
					ans[0][0] = "scribbled" // must not poison the entry
				} else {
					c.Put(key, valueFor(k))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Fatalf("cache grew to %d entries past its bound 16", n)
	}
	hits, misses := c.Stats()
	if hits+misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d lookups", hits+misses, workers*iters)
	}
}

// TestAnswerCachePromoteIncrRekeys: Promote moves an entry to its new
// key in place — the old key is gone, the new key serves the patched
// answers, and the cache does not grow.
func TestAnswerCachePromoteIncrRekeys(t *testing.T) {
	c := NewAnswerCache(4)
	c.Put("old", []relation.Tuple{{"a"}})
	c.Put("other", []relation.Tuple{{"o"}})
	c.Promote("old", "new", []relation.Tuple{{"b"}})
	if _, ok := c.Get("old"); ok {
		t.Fatal("old key must be gone after Promote")
	}
	ans, ok := c.Get("new")
	if !ok || len(ans) != 1 || ans[0][0] != "b" {
		t.Fatalf("new key = %v ok=%v, want patched answers", ans, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (re-key must not grow)", c.Len())
	}
}

// TestAnswerCachePromoteIncrKeepsLRUPosition: a promoted entry is most
// recently used — the incremental path keeps hot entries hot.
func TestAnswerCachePromoteIncrKeepsLRUPosition(t *testing.T) {
	c := NewAnswerCache(2)
	c.Put("hot", []relation.Tuple{{"h"}})
	c.Put("cold", []relation.Tuple{{"c"}})
	c.Promote("hot", "hot2", []relation.Tuple{{"h2"}})
	// Inserting one more evicts the LRU entry, which must be "cold".
	c.Put("newer", []relation.Tuple{{"n"}})
	if _, ok := c.Get("hot2"); !ok {
		t.Fatal("promoted entry should have been most recently used")
	}
	if _, ok := c.Get("cold"); ok {
		t.Fatal("cold entry should have been evicted")
	}
}

// TestAnswerCachePromoteIncrMissingOldKey: without the old entry
// (evicted, or a fresh series), Promote degrades to a plain Put.
func TestAnswerCachePromoteIncrMissingOldKey(t *testing.T) {
	c := NewAnswerCache(2)
	c.Promote("never-existed", "new", []relation.Tuple{{"x"}})
	ans, ok := c.Get("new")
	if !ok || len(ans) != 1 || ans[0][0] != "x" {
		t.Fatalf("Promote with absent old key should Put: %v ok=%v", ans, ok)
	}
	// Same with an empty old key and a pre-existing new key.
	c.Promote("", "new", []relation.Tuple{{"y"}})
	ans, _ = c.Get("new")
	if len(ans) != 1 || ans[0][0] != "y" {
		t.Fatalf("Promote onto existing new key should update: %v", ans)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestAnswerCachePromoteIncrCollision: when both the old and the new
// key exist, the new key's stale entry is dropped, not duplicated.
func TestAnswerCachePromoteIncrCollision(t *testing.T) {
	c := NewAnswerCache(4)
	c.Put("old", []relation.Tuple{{"a"}})
	c.Put("new", []relation.Tuple{{"stale"}})
	c.Promote("old", "new", []relation.Tuple{{"fresh"}})
	ans, ok := c.Get("new")
	if !ok || len(ans) != 1 || ans[0][0] != "fresh" {
		t.Fatalf("collision Promote = %v ok=%v, want fresh", ans, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 after collision", c.Len())
	}
}

// TestAnswerCachePromoteIncrCopies: Promote stores a copy — mutating
// the caller's slice afterwards cannot poison the entry.
func TestAnswerCachePromoteIncrCopies(t *testing.T) {
	c := NewAnswerCache(2)
	ans := []relation.Tuple{{"v"}}
	c.Promote("", "k", ans)
	ans[0][0] = "mutated"
	got, _ := c.Get("k")
	if got[0][0] != "v" {
		t.Fatal("Promote did not deep-copy the answers")
	}
}

// TestAnswerKeyComponents: the canonical cache key is deterministic
// and distinguishes every component — query text, answer variables,
// slice signature, data fingerprint.
func TestAnswerKeyComponents(t *testing.T) {
	sl := &Slice{Signature: "sigA"}
	base := AnswerKey("q(X)", []string{"X"}, sl, "fp1")
	if AnswerKey("q(X)", []string{"X"}, sl, "fp1") != base {
		t.Fatal("AnswerKey is not deterministic")
	}
	for name, other := range map[string]string{
		"query":       AnswerKey("p(X)", []string{"X"}, sl, "fp1"),
		"vars":        AnswerKey("q(X)", []string{"Y"}, sl, "fp1"),
		"fingerprint": AnswerKey("q(X)", []string{"X"}, sl, "fp2"),
		"signature":   AnswerKey("q(X)", []string{"X"}, &Slice{Signature: "sigB"}, "fp1"),
	} {
		if other == base {
			t.Fatalf("AnswerKey ignores the %s component", name)
		}
	}
}
