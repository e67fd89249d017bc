package relation

import (
	"reflect"
	"testing"
)

func TestJournalIncrRecordsMembershipChanges(t *testing.T) {
	in := NewInstance()
	j := NewJournal(0)
	in.SetJournal(j)
	if in.Journal() != j {
		t.Fatalf("Journal() did not return the attached journal")
	}

	in.Insert("r", Tuple{"a", "b"})
	in.Insert("r", Tuple{"a", "b"}) // duplicate: no membership change
	in.Insert("s", Tuple{"x"})
	in.Delete("r", Tuple{"a", "b"})
	in.Delete("r", Tuple{"zz", "zz"}) // absent: no membership change

	if got := j.Seq(); got != 3 {
		t.Fatalf("Seq = %d, want 3", got)
	}
	changes, ok := j.Since(0)
	if !ok {
		t.Fatalf("Since(0) reported unavailable")
	}
	want := []Change{
		{Fact: Fact{Rel: "r", Tuple: Tuple{"a", "b"}}, Insert: true},
		{Fact: Fact{Rel: "s", Tuple: Tuple{"x"}}, Insert: true},
		{Fact: Fact{Rel: "r", Tuple: Tuple{"a", "b"}}, Insert: false},
	}
	if !reflect.DeepEqual(changes, want) {
		t.Fatalf("changes = %v, want %v", changes, want)
	}

	// Re-inserting a previously deleted fact (the revive path) records.
	in.Insert("r", Tuple{"a", "b"})
	tail, ok := j.Since(3)
	if !ok || len(tail) != 1 || !tail[0].Insert || tail[0].Fact.Rel != "r" {
		t.Fatalf("revive insert not recorded: %v ok=%v", tail, ok)
	}
}

func TestJournalIncrSinceBounds(t *testing.T) {
	j := NewJournal(0)
	if _, ok := j.Since(1); ok {
		t.Fatalf("Since past the end should report unavailable")
	}
	if ch, ok := j.Since(0); !ok || len(ch) != 0 {
		t.Fatalf("Since(0) on empty journal = %v ok=%v", ch, ok)
	}
}

func TestJournalIncrTrim(t *testing.T) {
	in := NewInstance()
	j := NewJournal(4)
	in.SetJournal(j)
	for i := 0; i < 10; i++ {
		in.Insert("r", Tuple{string(rune('a' + i))})
	}
	if got := j.Seq(); got != 10 {
		t.Fatalf("Seq = %d, want 10", got)
	}
	if _, ok := j.Since(2); ok {
		t.Fatalf("trimmed positions must report unavailable")
	}
	changes, ok := j.Since(6)
	if !ok || len(changes) != 4 {
		t.Fatalf("Since(6) = %d changes ok=%v, want 4 true", len(changes), ok)
	}
	if changes[0].Fact.Tuple[0] != "g" {
		t.Fatalf("Since(6) starts at %q, want g", changes[0].Fact.Tuple[0])
	}
}

func TestJournalIncrDerivedInstancesDetach(t *testing.T) {
	in := NewInstance()
	j := NewJournal(0)
	in.SetJournal(j)
	in.Insert("r", Tuple{"a"})

	cl := in.Clone()
	if cl.Journal() != nil {
		t.Fatalf("Clone inherited the journal")
	}
	cl.Insert("r", Tuple{"b"})
	if got := j.Seq(); got != 1 {
		t.Fatalf("clone write leaked into the journal: Seq = %d, want 1", got)
	}
	if re := in.RestrictRels(map[string]bool{"r": true}); re.Journal() != nil {
		t.Fatalf("RestrictRels inherited the journal")
	}
}

// TestJournalTrimMatchesReference records 3×cap+k changes and, after
// every record, compares Seq and Since at every sequence number with a
// naive reference that keeps the whole history: exactly the last cap
// changes stay visible, whatever the compaction state.
func TestJournalTrimMatchesReference(t *testing.T) {
	for _, cap := range []int{1, 2, 5, 16} {
		j := NewJournal(cap)
		var all []Change
		for i := 0; i < 3*cap+cap/2+1; i++ {
			c := Change{Fact: Fact{Rel: "r", Tuple: Tuple{string(rune('a' + i%26)), string(rune('a' + i/26))}}, Insert: i%3 != 0}
			j.record(c.Fact, c.Insert)
			all = append(all, c)
			if got := j.Seq(); got != uint64(len(all)) {
				t.Fatalf("cap %d, %d records: Seq = %d", cap, len(all), got)
			}
			oldest := len(all) - cap
			if oldest < 0 {
				oldest = 0
			}
			for seq := 0; seq <= len(all)+1; seq++ {
				got, ok := j.Since(uint64(seq))
				wantOK := seq >= oldest && seq <= len(all)
				if ok != wantOK {
					t.Fatalf("cap %d, %d records: Since(%d) ok = %v, want %v", cap, len(all), seq, ok, wantOK)
				}
				if !ok {
					continue
				}
				want := all[seq:]
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d, %d records: Since(%d) = %v, want %v", cap, len(all), seq, got, want)
				}
			}
		}
	}
}

// BenchmarkJournalRecord times one record while the journal fills and
// once it is full and trimming: the two must cost about the same.
func BenchmarkJournalRecord(b *testing.B) {
	f := Fact{Rel: "r", Tuple: Tuple{"a", "b"}}
	b.Run("filling", func(b *testing.B) {
		j := NewJournal(b.N + 1)
		for i := 0; i < b.N; i++ {
			j.record(f, i%2 == 0)
		}
	})
	b.Run("full", func(b *testing.B) {
		j := NewJournal(0)
		for i := 0; i < DefaultJournalCap; i++ {
			j.record(f, i%2 == 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.record(f, i%2 == 0)
		}
	})
}
