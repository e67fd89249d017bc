package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/symtab"
	"repro/internal/term"
)

// scatteredFDInstance builds an instance with k independent FD
// conflicts on rel plus clean facts.
func scatteredFDInstance(k, clean int) *relation.Instance {
	in := relation.NewInstance()
	for i := 0; i < clean; i++ {
		in.Insert("r1", relation.Tuple{fmt.Sprintf("k%d", i), "v"})
	}
	for i := 0; i < k; i++ {
		in.Insert("r1", relation.Tuple{fmt.Sprintf("c%d", i), "u"})
		in.Insert("r1", relation.Tuple{fmt.Sprintf("c%d", i), "w"})
	}
	return in
}

func requireSameRepairs(t *testing.T, name string, inst *relation.Instance, deps []*constraint.Dependency, opt Options) {
	t.Helper()
	global := opt
	global.NoLocalize = true
	want, wantErr := Repairs(inst.Clone(), deps, global)
	got, gotErr := Repairs(inst.Clone(), deps, opt)
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: error diverges: global=%v localized=%v", name, wantErr, gotErr)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: repair count diverges: global=%d localized=%d", name, len(want), len(got))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("%s: repair %d diverges:\nglobal    %s\nlocalized %s", name, i, want[i], got[i])
		}
	}
}

func TestLocalizedScatteredFDConflicts(t *testing.T) {
	in := scatteredFDInstance(6, 10)
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	requireSameRepairs(t, "scattered-fd", in, deps, Options{})
	reps, err := Repairs(in, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 64 {
		t.Fatalf("want 2^6 = 64 repairs, got %d", len(reps))
	}
}

// TestLocalizedEngineEngages pins that the scattered workload really
// decomposes (one component per conflict) instead of silently falling
// back to the global search.
func TestLocalizedEngineEngages(t *testing.T) {
	in := scatteredFDInstance(4, 5)
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	opt := Options{MaxDelta: in.Size() + 64}
	pl, ok := tryLocalize(in, deps, opt)
	if !ok {
		t.Fatal("tryLocalize did not engage on scattered FD conflicts")
	}
	if len(pl.comps) != 4 {
		t.Fatalf("want 4 components, got %d", len(pl.comps))
	}
	for i, c := range pl.comps {
		if len(c.deltas) != 2 {
			t.Fatalf("component %d: want 2 minimal repairs, got %d", i, len(c.deltas))
		}
	}
}

// TestLocalizedSharedFactMerges: two FD violations pivoting on the same
// fact must land in one component (deleting the shared fact fixes
// both).
func TestLocalizedSharedFactMerges(t *testing.T) {
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"a", "c"}, {"a", "d"}}, // three pairwise conflicts, all sharing facts
		"r2": {{"x", "u"}, {"x", "v"}},             // one independent conflict
	})
	deps := []*constraint.Dependency{constraint.FD("fd1", "r1"), constraint.FD("fd2", "r2")}
	opt := Options{MaxDelta: in.Size() + 64}
	pl, ok := tryLocalize(in, deps, opt)
	if !ok {
		t.Fatal("tryLocalize did not engage")
	}
	if len(pl.comps) != 2 {
		t.Fatalf("want 2 components (r1-cluster, r2-conflict), got %d", len(pl.comps))
	}
	requireSameRepairs(t, "shared-fact", in, deps, Options{})
}

// TestLocalizedTGDCascadeBridges: a full TGD whose head facts overlap a
// would-be-independent FD conflict must merge the two conflicts — the
// FD repair can delete a fact the TGD would re-derive (cascade), so
// they are not independent. The localized engine must agree with the
// global one either way.
func TestLocalizedTGDCascadeBridges(t *testing.T) {
	// src(a,b) -> dst(a,b); dst has an FD conflict at key a involving
	// the derived fact dst(a,b): deleting dst(a,b) violates the TGD,
	// whose repair can delete src(a,b) or re-insert dst(a,b).
	in := mkInst(map[string][]relation.Tuple{
		"src": {{"a", "b"}},
		"dst": {{"a", "b"}, {"a", "c"}},
		"r2":  {{"x", "u"}, {"x", "v"}}, // genuinely independent conflict
	})
	deps := []*constraint.Dependency{
		constraint.Inclusion("inc", "src", "dst", 2),
		constraint.FD("fd", "dst"),
		constraint.FD("fd2", "r2"),
	}
	opt := Options{MaxDelta: in.Size() + 64}
	pl, ok := tryLocalize(in, deps, opt)
	if !ok {
		t.Fatal("tryLocalize did not engage")
	}
	if len(pl.comps) != 2 {
		t.Fatalf("want 2 components (bridged dst-cluster, r2), got %d", len(pl.comps))
	}
	// The dst conflict and the r2 conflict must not share a component.
	requireSameRepairs(t, "tgd-cascade", in, deps, Options{})
}

// TestLocalizedGuardViolation: a violation whose facts are all fixed
// admits no repair action; the whole repair set is empty, in both
// engines, even when other components are repairable.
func TestLocalizedGuardViolation(t *testing.T) {
	in := mkInst(map[string][]relation.Tuple{
		"fx": {{"a", "b"}, {"a", "c"}}, // guard conflict on a fixed relation
		"r1": {{"k", "u"}, {"k", "v"}}, // repairable conflict
	})
	deps := []*constraint.Dependency{constraint.FD("fdfx", "fx"), constraint.FD("fd1", "r1")}
	opt := Options{Fixed: map[string]bool{"fx": true}}
	requireSameRepairs(t, "guard", in, deps, opt)
	reps, err := Repairs(in, deps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Fatalf("guard violation must kill every repair, got %d", len(reps))
	}
}

// TestLocalizedMaxRepairsFallsBack: truncation is exploration-order
// dependent, so the localized engine must defer to the global one and
// stay byte-identical.
func TestLocalizedMaxRepairsFallsBack(t *testing.T) {
	in := scatteredFDInstance(4, 3)
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	for _, mr := range []int{1, 3, 7} {
		requireSameRepairs(t, fmt.Sprintf("maxrepairs=%d", mr), in, deps, Options{MaxRepairs: mr})
	}
}

// TestLocalizedErrBoundFallsBack: with a delta bound tight enough to
// prune, both engines must return the same (possibly truncated) set
// and the same ErrBound.
func TestLocalizedErrBound(t *testing.T) {
	in := scatteredFDInstance(4, 0)
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	for _, md := range []int{1, 2, 3, 4, 5, 8} {
		requireSameRepairs(t, fmt.Sprintf("maxdelta=%d", md), in, deps, Options{MaxDelta: md})
	}
}

// TestLocalizedExistentialWitness: an existential TGD whose witnesses
// come from a fixed relation is localizable (witness pool is frozen);
// results must match the global engine.
func TestLocalizedExistentialWitness(t *testing.T) {
	// r1(x,y) ∧ s1(z,y) -> ∃w r2(x,w) ∧ s2(z,w) with s1, s2 fixed:
	// two independent violations plus an independent FD conflict.
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"x0", "y0"}, {"x1", "y1"}},
		"s1": {{"z0", "y0"}, {"z1", "y1"}},
		"s2": {{"z0", "w0"}, {"z1", "w1"}},
		"ra": {{"k", "u"}, {"k", "v"}},
	})
	deps := []*constraint.Dependency{
		constraint.Referential("dec3", "r1", "s1", "r2", "s2"),
		constraint.FD("fd", "ra"),
	}
	opt := Options{Fixed: map[string]bool{"s1": true, "s2": true}}
	requireSameRepairs(t, "existential-witness", in, deps, opt)
}

// TestLocalizedDomainDependentFallsBack: an existential TGD with no
// fixed head atom draws witnesses from the active domain — components
// would interact through constants — so localization must not engage,
// and results stay identical by construction.
func TestLocalizedDomainDependentFallsBack(t *testing.T) {
	d := &constraint.Dependency{
		Name:   "dd",
		Body:   []term.Atom{term.NewAtom("r1", term.V("X"))},
		ExVars: []string{"W"},
		Head:   []term.Atom{term.NewAtom("r2", term.V("X"), term.V("W"))},
	}
	if !domainDependentDep(d, nil) {
		t.Fatal("dep should be domain-dependent with no fixed head atom")
	}
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a"}},
		"ra": {{"k", "u"}, {"k", "v"}},
	})
	deps := []*constraint.Dependency{d, constraint.FD("fd", "ra")}
	opt := Options{MaxDelta: in.Size() + 64}
	if _, ok := tryLocalize(in, deps, opt); ok {
		t.Fatal("tryLocalize must not engage with a domain-dependent dep")
	}
	requireSameRepairs(t, "domain-dependent", in, deps, Options{})
}

// TestLocalizedConsistentAnswers: the engine's answer step, reached
// through both drivers, must match the global engine's answers. The
// one-shot driver answers per component or, for a query spanning two
// components, materializes; the incremental driver answers from a fresh
// IncrState and from one that has seen a write and its undo, and
// refuses a query spanning two components.
func TestLocalizedConsistentAnswers(t *testing.T) {
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"a", "c"}, {"k", "v"}},
		"r2": {{"x", "u"}, {"x", "w"}, {"m", "n"}},
	})
	deps := []*constraint.Dependency{constraint.FD("fd1", "r1"), constraint.FD("fd2", "r2")}
	untouched := in.Clone()
	untouched.Insert("r3", relation.Tuple{"p", "q"})
	consistent := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"k", "v"}},
		"r2": {{"x", "u"}},
	})
	guarded := mkInst(map[string][]relation.Tuple{
		"fx": {{"a", "b"}, {"a", "c"}}, // a conflict on a fixed relation: no repair
		"r1": {{"k", "u"}, {"k", "v"}, {"j", "w"}},
	})
	guardDeps := []*constraint.Dependency{constraint.FD("fdfx", "fx"), constraint.FD("fd1", "r1")}
	xy := []string{"X", "Y"}
	for _, tc := range []struct {
		query string
		vars  []string
		inst  *relation.Instance
		deps  []*constraint.Dependency
		fixed map[string]bool
		spans bool // the incremental driver must refuse
	}{
		{"r1(X,Y)", xy, in, deps, nil, false},                                   // touches one component
		{"r2(X,Y)", xy, in, deps, nil, false},                                   // the other component
		{"r1(X,Y) | r2(X,Y)", xy, in, deps, nil, true},                          // spans both, answers differ per component
		{"r1(X,Y) & r2(X,Z)", []string{"X", "Y", "Z"}, in, deps, nil, true},     // spans both: materializes
		{"r3(X,Y)", xy, untouched, deps, nil, false},                            // no component touched
		{"r1(X,Y)", xy, guarded, guardDeps, map[string]bool{"fx": true}, false}, // a component without repairs
		{"r1(X,Y)", xy, consistent, deps, nil, false},                           // no violations
	} {
		q := foquery.MustParse(tc.query)
		opt := Options{Fixed: tc.fixed}
		global := opt
		global.NoLocalize = true
		want, wantErr := ConsistentAnswers(tc.inst.Clone(), tc.deps, q, tc.vars, global)
		got, gotErr := ConsistentAnswers(tc.inst.Clone(), tc.deps, q, tc.vars, opt)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: answers diverge: global=%v (%v) localized=%v (%v)", tc.query, want, wantErr, got, gotErr)
		}
		reps, err := Repairs(tc.inst.Clone(), tc.deps, global)
		if err != nil {
			t.Fatal(err)
		}
		for _, undo := range []bool{false, true} {
			name := fmt.Sprintf("%s on %s, after a write and its undo: %v", tc.query, tc.inst, undo)
			inst := tc.inst.Clone()
			st, ok := NewIncrState(tc.deps, tc.fixed)
			if !ok {
				t.Fatalf("%s: NewIncrState refused", name)
			}
			w := journal(inst)
			if undo {
				write := relation.Tuple{"a", "undo"}
				for _, apply := range []func(string, relation.Tuple) bool{inst.Insert, inst.Delete} {
					if _, _, _, err := st.Answers(inst, w.since(t), q, tc.vars, Options{}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					apply("r1", write)
				}
			}
			got, noRepairs, ok, err := st.Answers(inst, w.since(t), q, tc.vars, Options{})
			switch {
			case err != nil:
				t.Fatalf("%s: %v", name, err)
			case tc.spans || !ok:
				if ok != !tc.spans {
					t.Fatalf("%s: ok=%v, want %v", name, ok, !tc.spans)
				}
			case noRepairs != (len(reps) == 0):
				t.Fatalf("%s: noRepairs=%v with %d global repairs", name, noRepairs, len(reps))
			case !reflect.DeepEqual(got, want):
				t.Fatalf("%s: answers diverge: global=%v incremental=%v", name, want, got)
			}
		}
	}
}

// seededScattered draws a random scattered instance: a mix of FD
// conflicts, inclusion imports and satisfied constraints, with the
// inclusion's source fixed half the time.
func seededScattered(seed int64) (*relation.Instance, []*constraint.Dependency, map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	in := relation.NewInstance()
	k := 1 + rng.Intn(4)
	for i := 0; i < k; i++ {
		in.Insert("r1", relation.Tuple{fmt.Sprintf("c%d", i), "u"})
		if rng.Intn(2) == 0 {
			in.Insert("r1", relation.Tuple{fmt.Sprintf("c%d", i), "w"})
		}
	}
	for i := 0; i < rng.Intn(5); i++ {
		in.Insert("src", relation.Tuple{fmt.Sprintf("s%d", i), "v"})
		if rng.Intn(2) == 0 {
			in.Insert("dst", relation.Tuple{fmt.Sprintf("s%d", i), "v"})
		}
	}
	for i := 0; i < rng.Intn(3); i++ {
		in.Insert("r2", relation.Tuple{fmt.Sprintf("q%d", i), "u"})
		in.Insert("r2", relation.Tuple{fmt.Sprintf("q%d", i), "w"})
	}
	deps := []*constraint.Dependency{
		constraint.FD("fd1", "r1"),
		constraint.Inclusion("inc", "src", "dst", 2),
		constraint.FD("fd2", "r2"),
	}
	var fixed map[string]bool
	if rng.Intn(2) == 0 {
		fixed = map[string]bool{"src": true}
	}
	return in, deps, fixed
}

// TestLocalizedSeededRandom sweeps random scattered instances,
// comparing localized and global output (including error values) at
// several delta bounds.
func TestLocalizedSeededRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		in, deps, fixed := seededScattered(seed)
		for _, md := range []int{0, 2, 5} {
			name := fmt.Sprintf("seed=%d maxdelta=%d fixedsrc=%v", seed, md, fixed != nil)
			requireSameRepairs(t, name, in, deps, Options{MaxDelta: md, Fixed: fixed})
		}
	}
}

// TestRepairsSortedDistinct: Repairs returns its repairs strictly
// increasing by canonical key on the localized path and the global
// path, under MaxDelta and MaxRepairs cuts too, so a caller holding one
// Repairs result has nothing left to sort or deduplicate.
func TestRepairsSortedDistinct(t *testing.T) {
	var stats Stats
	for seed := int64(0); seed < 25; seed++ {
		in, deps, fixed := seededScattered(seed)
		for _, opt := range []Options{{}, {NoLocalize: true}, {MaxDelta: 1}, {MaxDelta: 2}, {MaxRepairs: 1}, {MaxRepairs: 3}} {
			opt.Fixed, opt.Stats = fixed, &stats
			reps, err := Repairs(in.Clone(), deps, opt)
			if err != nil && err != ErrBound {
				t.Fatal(err)
			}
			for i := 1; i < len(reps); i++ {
				if prev, cur := reps[i-1].Key(), reps[i].Key(); prev >= cur {
					t.Fatalf("seed %d, %+v: repair %d is not above repair %d:\n%s\n%s", seed, opt, i, i-1, cur, prev)
				}
			}
		}
	}
	if searches, localized, _ := stats.Snapshot(); localized == 0 || localized == searches {
		t.Fatalf("generator too weak: %d of %d searches localized", localized, searches)
	}
}

// TestCrossProductMinimality is the testing/quick property behind the
// composition step: for disjoint per-component delta families, the
// cross-product of the per-component ⊆-minimal sets equals
// minimalByDelta over the full cross-product.
func TestCrossProductMinimality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	property := func(raw [][]uint8, pick uint8) bool {
		// Build 2-3 components with disjoint fact universes: component c
		// owns ids [c*16, c*16+8); each candidate delta is a subset coded
		// by the low byte.
		nc := 2 + int(pick%2)
		comps := make([][]bitset.Set, nc)
		for c := 0; c < nc; c++ {
			var cands []bitset.Set
			for i := 0; i < len(raw) && i < 4; i++ {
				var delta bitset.Set
				code := uint8(0)
				if c < len(raw) && i < len(raw[c%len(raw)]) {
					code = raw[c%len(raw)][i]
				}
				for b := 0; b < 8; b++ {
					if code&(1<<b) != 0 {
						delta.Set(uint32(c*16 + b))
					}
				}
				cands = append(cands, delta)
			}
			if len(cands) == 0 {
				cands = []bitset.Set{syms(symtab.Sym(c * 16))}
			}
			comps[c] = cands
		}
		// Composed candidates: every combination, delta = union
		// (components are disjoint, so xor is union).
		var composed []bitset.Set
		var walk func(c int, acc bitset.Set)
		walk = func(c int, acc bitset.Set) {
			if c == nc {
				composed = append(composed, acc.Clone())
				return
			}
			for _, d := range comps[c] {
				walk(c+1, bitset.Xor(acc, d))
			}
		}
		walk(0, nil)
		dummyAll := make([]*relation.Instance, len(composed))
		_, keptAll := minimalByDelta(dummyAll, composed)
		wantKeys := map[string]bool{}
		for _, k := range keptAll {
			wantKeys[composed[k].Key()] = true
		}
		// Factorized: minimal per component, then compose.
		var gotKeys = map[string]bool{}
		minPer := make([][]bitset.Set, nc)
		for c := 0; c < nc; c++ {
			dummy := make([]*relation.Instance, len(comps[c]))
			_, kept := minimalByDelta(dummy, comps[c])
			for _, k := range kept {
				minPer[c] = append(minPer[c], comps[c][k])
			}
		}
		var walk2 func(c int, acc bitset.Set)
		walk2 = func(c int, acc bitset.Set) {
			if c == nc {
				gotKeys[acc.Key()] = true
				return
			}
			for _, d := range minPer[c] {
				walk2(c+1, bitset.Xor(acc, d))
			}
		}
		walk2(0, nil)
		return reflect.DeepEqual(wantKeys, gotKeys)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
