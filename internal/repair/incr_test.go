package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/term"
)

// scatteredMultiRelInstance builds k independent FD conflicts, each on
// its own relation r0..r{k-1}, plus clean facts per relation — the
// shape whose components are pairwise predicate-disjoint (so a query
// over one relation observes exactly one component).
func scatteredMultiRelInstance(k, clean int) (*relation.Instance, []*constraint.Dependency) {
	in := relation.NewInstance()
	deps := make([]*constraint.Dependency, 0, k)
	for i := 0; i < k; i++ {
		rel := fmt.Sprintf("r%d", i)
		deps = append(deps, constraint.FD(fmt.Sprintf("fd%d", i), rel))
		for j := 0; j < clean; j++ {
			in.Insert(rel, relation.Tuple{fmt.Sprintf("k%d_%d", i, j), "v"})
		}
		in.Insert(rel, relation.Tuple{fmt.Sprintf("c%d", i), "u"})
		in.Insert(rel, relation.Tuple{fmt.Sprintf("c%d", i), "w"})
	}
	return in, deps
}

func mustParse(t *testing.T, q string) foquery.Formula {
	t.Helper()
	f, err := foquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// journaled records the writes a test makes to an instance, so each
// Answers call can be handed exactly the changes made since the last.
type journaled struct {
	j   *relation.Journal
	seq uint64
}

func journal(inst *relation.Instance) *journaled {
	j := relation.NewJournal(0)
	inst.SetJournal(j)
	return &journaled{j: j}
}

// since returns the changes recorded since its previous call.
func (w *journaled) since(t *testing.T) []relation.Change {
	t.Helper()
	changes, ok := w.j.Since(w.seq)
	if !ok {
		t.Fatal("journal trimmed a test's writes")
	}
	w.seq = w.j.Seq()
	return changes
}

// requireIncrMatchesFull asserts the incremental answer equals the
// full ConsistentAnswers recompute, byte for byte.
func requireIncrMatchesFull(t *testing.T, st *IncrState, inst *relation.Instance, changes []relation.Change, deps []*constraint.Dependency, q foquery.Formula, vars []string, opt Options) {
	t.Helper()
	got, noRepairs, ok, err := st.Answers(inst, changes, q, vars, opt)
	if !ok {
		t.Fatalf("incremental path fell back (changes=%v)", changes)
	}
	if err != nil {
		t.Fatal(err)
	}
	if noRepairs {
		t.Fatalf("unexpected noRepairs outcome (changes=%v)", changes)
	}
	want, werr := ConsistentAnswers(inst.Clone(), deps, q, vars, opt)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental answers diverge (changes=%v):\nincr %v\nfull %v", changes, got, want)
	}
}

func TestIncrAnswersMatchesFullAcrossDeltas(t *testing.T) {
	const k = 4
	inst, deps := scatteredMultiRelInstance(k, 3)
	st, ok := NewIncrState(deps, map[string]bool{})
	if !ok {
		t.Fatal("NewIncrState refused an FD problem")
	}
	q := mustParse(t, "r0(X,Y)")
	vars := []string{"X", "Y"}
	opt := Options{}

	w := journal(inst)

	// Cold call seeds every component.
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)
	if got := st.CachedComponents(); got != k {
		t.Fatalf("cached components = %d, want %d", got, k)
	}

	// Delta 1: fresh clean fact in an untouched relation — only r2's
	// component is re-searched, the rest are reused.
	inst.Insert("r2", relation.Tuple{"fresh0", "v"})
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)

	// Delta 2: a write that creates a brand-new conflict in r3.
	inst.Insert("r3", relation.Tuple{"c3", "x"})
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)

	// Delta 3: resolve r1's conflict by deleting one side.
	inst.Delete("r1", relation.Tuple{"c1", "w"})
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)

	// Delta 4: a write into the queried relation itself.
	inst.Insert("r0", relation.Tuple{"freshq", "v"})
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)

	// Delta 5: a write and its undo cancel — the component cache
	// survives whole.
	cached := st.CachedComponents()
	inst.Delete("r2", relation.Tuple{"c2", "u"})
	inst.Insert("r2", relation.Tuple{"c2", "u"})
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)
	if got := st.CachedComponents(); got != cached {
		t.Fatalf("cached components after a cancelled write = %d, want %d", got, cached)
	}

	// Delta 6: empty delta — everything served from the component cache.
	requireIncrMatchesFull(t, st, inst, w.since(t), deps, q, vars, opt)
}

// TestIncrListsMatchFreshAfterEveryWrite is a white-box check of the
// delta-derived state: after each Answers call in a random write
// sequence, every dependency's cached violation list equals a fresh
// Violations(inst), element for element, and every full TGD's support
// counts equal a fresh count, whether or not the writes touched the
// dependency. The dependencies are recheckDeps' five plus a full TGD
// over a join. Answers that pass the exactness gates must equal the
// full recompute.
func TestIncrListsMatchFreshAfterEveryWrite(t *testing.T) {
	x, y, z := term.V("X"), term.V("Y"), term.V("Z")
	deps := append(recheckDeps(), &constraint.Dependency{
		Name: "join_rs",
		Body: []term.Atom{term.NewAtom("r", x, y), term.NewAtom("s", y, z)},
		Head: []term.Atom{term.NewAtom("t", x, z)},
	})
	fixed := map[string]bool{"t": true}
	rels := []string{"r", "s", "t"}
	vals := []string{"a", "b", "c"}
	q := mustParse(t, "r(X,Y)")
	vars := []string{"X", "Y"}
	answered := 0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randFact := func() relation.Fact {
			return relation.Fact{Rel: rels[rng.Intn(len(rels))], Tuple: relation.Tuple{vals[rng.Intn(3)], vals[rng.Intn(3)]}}
		}
		inst := relation.NewInstance()
		for i := 3 + rng.Intn(8); i > 0; i-- {
			f := randFact()
			inst.Insert(f.Rel, f.Tuple)
		}
		st, ok := NewIncrState(deps, fixed)
		if !ok {
			t.Fatal("NewIncrState refused the problem")
		}
		w := journal(inst)
		for step := 0; step < 8; step++ {
			if step > 0 {
				for i := 1 + rng.Intn(3); i > 0; i-- {
					if f := randFact(); rng.Intn(2) == 0 {
						inst.Insert(f.Rel, f.Tuple)
					} else if ts := inst.Tuples(f.Rel); len(ts) > 0 {
						inst.Delete(f.Rel, ts[rng.Intn(len(ts))])
					}
				}
			}
			got, noRepairs, ok, err := st.Answers(inst, w.since(t), q, vars, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range deps {
				fresh, err := d.Violations(inst)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(violationKeys(st.vios[i]), violationKeys(fresh)) {
					t.Errorf("seed %d step %d, %s on %s:\ncached: %q\nfresh:  %q", seed, step, d.Name, inst, violationKeys(st.vios[i]), violationKeys(fresh))
					return false
				}
				if d.IsFullTGD() {
					want, err := headSupport(inst, d)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(st.support[i], want) {
						t.Errorf("seed %d step %d, %s support on %s:\ncached: %v\nfresh:  %v", seed, step, d.Name, inst, st.support[i], want)
						return false
					}
				}
			}
			if !ok || noRepairs {
				continue
			}
			answered++
			want, err := ConsistentAnswers(inst.Clone(), deps, q, vars, Options{Fixed: fixed})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d step %d: answers diverge on %s:\nincr %v\nfull %v", seed, step, inst, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if answered == 0 {
		t.Fatal("generator too weak: no call passed the exactness gates")
	}
}

func TestIncrConsistentInstance(t *testing.T) {
	inst, deps := scatteredMultiRelInstance(2, 2)
	// Resolve both conflicts up front: zero violations, the instance is
	// its own unique repair.
	inst.Delete("r0", relation.Tuple{"c0", "w"})
	inst.Delete("r1", relation.Tuple{"c1", "w"})
	st, _ := NewIncrState(deps, map[string]bool{})
	q := mustParse(t, "r0(X,Y)")
	vars := []string{"X", "Y"}

	got, noRepairs, ok, err := st.Answers(inst, nil, q, vars, Options{})
	if !ok || err != nil || noRepairs {
		t.Fatalf("consistent instance: ok=%v err=%v noRepairs=%v", ok, err, noRepairs)
	}
	want, _ := ConsistentAnswers(inst.Clone(), deps, q, vars, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answers diverge:\nincr %v\nfull %v", got, want)
	}
}

func TestIncrNoRepairsOutcome(t *testing.T) {
	// A violated EGD whose relations are all fixed admits no repair.
	in := relation.NewInstance()
	in.Insert("a", relation.Tuple{"k", "u"})
	in.Insert("b", relation.Tuple{"k", "v"})
	deps := []*constraint.Dependency{constraint.KeyEGD("egd", "a", "b")}
	st, ok := NewIncrState(deps, map[string]bool{"a": true, "b": true})
	if !ok {
		t.Fatal("NewIncrState refused")
	}
	q := mustParse(t, "a(X,Y)")
	_, noRepairs, ok, err := st.Answers(in, nil, q, []string{"X", "Y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !noRepairs {
		t.Fatalf("want noRepairs=true ok=true, got noRepairs=%v ok=%v", noRepairs, ok)
	}
}

func TestIncrFallbackGates(t *testing.T) {
	inst, deps := scatteredMultiRelInstance(3, 2)
	vars := []string{"X", "Y"}
	single := mustParse(t, "r0(X,Y)")

	gates := []struct {
		name string
		q    foquery.Formula
		opt  Options
	}{
		{"no-localize", single, Options{NoLocalize: true}},
		{"max-repairs", single, Options{MaxRepairs: 5}},
		{"non-domain-free", mustParse(t, "r0(X,Y) & !r1(X,Y)"), Options{}},
		{"query-spans-two-components", mustParse(t, "r0(X,Y) | r1(X,Y)"), Options{}},
		{"max-delta-sum", single, Options{MaxDelta: 2}},
	}
	for _, g := range gates {
		st, ok := NewIncrState(deps, map[string]bool{})
		if !ok {
			t.Fatal("NewIncrState refused")
		}
		if _, _, ok, _ := st.Answers(inst, nil, g.q, vars, g.opt); ok {
			t.Fatalf("%s: gate did not force a fallback", g.name)
		}
		// The state must stay usable: a subsequent plain call succeeds
		// and matches the full recompute.
		requireIncrMatchesFull(t, st, inst, nil, deps, single, vars, Options{})
	}
}

// TestIncrRefusedCallTakesItsChanges: a call an option or query gate
// refuses still consumes the changes handed to it, so the next call
// answers exactly.
func TestIncrRefusedCallTakesItsChanges(t *testing.T) {
	vars := []string{"X", "Y"}
	single := mustParse(t, "r0(X,Y)")
	for _, g := range []struct {
		q   foquery.Formula
		opt Options
	}{
		{mustParse(t, "!r1(X,Y) & r0(X,Y)"), Options{}},
		{single, Options{NoLocalize: true}},
	} {
		inst, deps := scatteredMultiRelInstance(2, 1)
		st, _ := NewIncrState(deps, map[string]bool{})
		w := journal(inst)
		requireIncrMatchesFull(t, st, inst, w.since(t), deps, single, vars, Options{})
		inst.Insert("r0", relation.Tuple{"c0", "x"})
		if _, _, ok, _ := st.Answers(inst, w.since(t), g.q, vars, g.opt); ok {
			t.Fatalf("%v %+v: gate did not refuse", g.q, g.opt)
		}
		requireIncrMatchesFull(t, st, inst, w.since(t), deps, single, vars, Options{})
	}
}

func TestIncrStateRejectsBadShapes(t *testing.T) {
	d := constraint.FD("fd", "r0")
	if _, ok := NewIncrState([]*constraint.Dependency{d, d}, nil); ok {
		t.Fatal("duplicate dependency pointers must be rejected")
	}
}

// TestNewIncrStateRefusals pins the constructor's gates: duplicate
// dependency entries, invalid dependencies, and domain-dependent
// existential TGDs are refused; fixing the existential head makes the
// same dependency acceptable.
func TestNewIncrStateRefusals(t *testing.T) {
	fd := constraint.FD("fd", "r0")
	if _, ok := NewIncrState([]*constraint.Dependency{fd, fd}, map[string]bool{}); ok {
		t.Fatal("duplicate dependency entry accepted")
	}
	bad := &constraint.Dependency{Name: "bad"}
	if _, ok := NewIncrState([]*constraint.Dependency{bad}, map[string]bool{}); ok {
		t.Fatal("invalid (empty-body) dependency accepted")
	}
	ref := &constraint.Dependency{
		Name:   "ref",
		Body:   []term.Atom{term.NewAtom("r0", term.V("X"), term.V("Y"))},
		Head:   []term.Atom{term.NewAtom("s0", term.V("X"), term.V("W"))},
		ExVars: []string{"W"},
	}
	if _, ok := NewIncrState([]*constraint.Dependency{ref}, map[string]bool{}); ok {
		t.Fatal("domain-dependent existential TGD accepted")
	}
	if _, ok := NewIncrState([]*constraint.Dependency{ref}, map[string]bool{"s0": true}); !ok {
		t.Fatal("existential TGD with fixed head refused")
	}
}

// TestDomainFreeQuery pins the exported fragment test: atoms under
// conjunction and disjunction qualify; negation and quantifiers do not.
func TestDomainFreeQuery(t *testing.T) {
	for _, c := range []struct {
		q    string
		want bool
	}{
		{"r0(X,Y)", true},
		{"r0(X,Y) & r1(X,Y)", true},
		{"r0(X,Y) | r1(X,Y)", true},
		{"!r0(X,Y)", false},
		{"exists Y (r0(X,Y))", false},
		{"r0(X,Y) & !r1(X,Y)", false},
	} {
		if got := DomainFreeQuery(mustParse(t, c.q)); got != c.want {
			t.Errorf("DomainFreeQuery(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestIncrStateResetRecovers: reset drops all dynamic state (the error
// recovery path), and the next Answers call rebuilds from scratch with
// answers still matching the full recompute.
func TestIncrStateResetRecovers(t *testing.T) {
	inst, deps := scatteredMultiRelInstance(3, 2)
	st, ok := NewIncrState(deps, map[string]bool{})
	if !ok {
		t.Fatal("NewIncrState refused an FD problem")
	}
	q := mustParse(t, "r1(X,Y)")
	vars := []string{"X", "Y"}
	requireIncrMatchesFull(t, st, inst, nil, deps, q, vars, Options{})
	if st.CachedComponents() == 0 {
		t.Fatal("no components cached after a seeded answer")
	}
	st.reset()
	if st.CachedComponents() != 0 {
		t.Fatalf("reset left %d cached components", st.CachedComponents())
	}
	requireIncrMatchesFull(t, st, inst, nil, deps, q, vars, Options{})
	if st.CachedComponents() == 0 {
		t.Fatal("no components re-cached after reset")
	}
}

// TestDeterminismIncrState: the incremental driver's answers, outcomes
// and component cache are identical at every parallelism level, over
// random write sequences on the scattered multi-relation instance
// (writes add clean facts, add or resolve conflicts, and delete).
func TestDeterminismIncrState(t *testing.T) {
	levels := []int{1, 2, 8}
	vars := []string{"X", "Y"}
	vals := []string{"u", "v", "w", "x"}
	patched := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const k = 4
		inst, deps := scatteredMultiRelInstance(k, 3)
		w := journal(inst)
		states := make([]*IncrState, len(levels))
		for i := range states {
			var ok bool
			if states[i], ok = NewIncrState(deps, map[string]bool{}); !ok {
				t.Fatal("NewIncrState refused an FD problem")
			}
		}
		q := mustParse(t, fmt.Sprintf("r%d(X,Y)", rng.Intn(k)))
		for step := 0; step < 8; step++ {
			for i := rng.Intn(4); step > 0 && i >= 0; i-- {
				rel := fmt.Sprintf("r%d", rng.Intn(k))
				if ts := inst.Tuples(rel); rng.Intn(3) == 0 && len(ts) > 0 {
					inst.Delete(rel, ts[rng.Intn(len(ts))])
					continue
				}
				keys := []string{fmt.Sprintf("c%s", rel[1:]), fmt.Sprintf("k%s_0", rel[1:]), fmt.Sprintf("n%d", rng.Intn(3))}
				inst.Insert(rel, relation.Tuple{keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))]})
			}
			changes := w.since(t)
			var want string
			for i, st := range states {
				ans, noRepairs, ok, err := st.Answers(inst, changes, q, vars, Options{Parallelism: levels[i]})
				got := fmt.Sprintf("answers=%v noRepairs=%v ok=%v err=%v cached=%d", ans, noRepairs, ok, err, st.CachedComponents())
				if i == 0 {
					want = got
					if ok && step > 0 {
						patched++
					}
				} else if got != want {
					t.Fatalf("seed %d step %d: parallelism %d gives %s, parallelism %d gives %s", seed, step, levels[0], want, levels[i], got)
				}
			}
		}
	}
	if patched == 0 {
		t.Fatal("generator too weak: no write was answered incrementally")
	}
}
