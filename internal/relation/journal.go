package relation

import "sync"

// Change is one fact-level mutation of an instance: the fact that was
// inserted into or deleted from its relation. Only membership changes
// are recorded — re-inserting a present tuple or deleting an absent one
// produces no Change.
type Change struct {
	Fact   Fact
	Insert bool
}

// Journal records the fact-level mutation history of an Instance so
// incremental consumers can replay exactly the delta between two points
// in time instead of diffing (or re-reading) whole relations. Sequence
// numbers count every membership change since the journal was attached;
// the journal keeps only the most recent cap changes, and Since reports
// when a requested suffix has been trimmed away.
//
// A Journal is attached to at most one live Instance (SetJournal);
// clones and restrictions of that instance do not inherit it, so
// speculative copies mutated during a repair search never pollute the
// history. Recording and reading are mutex-synchronized: the instance
// itself does not allow concurrent mutation, but a reader may snapshot
// the journal while a writer on another goroutine appends.
type Journal struct {
	mu sync.Mutex
	// buf[head:] holds the kept changes, oldest first. Trimming advances
	// head; the backing array is compacted once head reaches cap, so a
	// record moves at most one change's worth of memory amortized.
	buf  []Change
	head int
	base uint64 // sequence number of buf[head]
	cap  int
}

// DefaultJournalCap bounds the history kept by NewJournal(0). It is
// sized for serving-plane churn: far more than one slice delta between
// consecutive queries of a hot entry, small enough to be irrelevant
// next to the instance itself.
const DefaultJournalCap = 1024

// NewJournal returns an empty journal keeping at most cap changes
// (DefaultJournalCap when cap <= 0).
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	return &Journal{cap: cap}
}

// Seq returns the sequence number of the next change: the total number
// of membership changes recorded so far.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base + uint64(len(j.buf)-j.head)
}

// Since returns a copy of the changes recorded at sequence numbers
// [seq, Seq()). ok is false when that suffix is no longer fully held
// (the journal trimmed past seq, or seq is in the future); the caller
// must then fall back to a non-incremental path.
func (j *Journal) Since(seq uint64) (changes []Change, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.base + uint64(len(j.buf)-j.head)
	if seq < j.base || seq > end {
		return nil, false
	}
	tail := j.buf[j.head+int(seq-j.base):]
	if len(tail) == 0 {
		return nil, true
	}
	out := make([]Change, len(tail))
	copy(out, tail)
	return out, true
}

// record appends one change, trimming the oldest entry beyond cap.
func (j *Journal) record(f Fact, insert bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = append(j.buf, Change{Fact: f, Insert: insert})
	if len(j.buf)-j.head > j.cap {
		j.buf[j.head] = Change{} // release the trimmed fact
		j.head++
		j.base++
	}
	if j.head >= j.cap {
		n := copy(j.buf, j.buf[j.head:])
		clear(j.buf[n:])
		j.buf = j.buf[:n]
		j.head = 0
	}
}

// SetJournal attaches a journal to the instance: every later membership
// change (Insert/InsertAtom/AddAll/Delete) is recorded. Pass nil to
// detach. Clones and restrictions of the instance never inherit the
// journal.
func (in *Instance) SetJournal(j *Journal) { in.journal = j }

// Journal returns the attached journal, or nil.
func (in *Instance) Journal() *Journal { return in.journal }
