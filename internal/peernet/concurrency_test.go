package peernet

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/testutil"
)

// TestConcurrentRequests hammers a node with parallel fetches, queries
// and PCA requests over both transports; results must stay correct
// (the PCAs equal the in-memory oracle's) and the race detector clean.
func TestConcurrentRequests(t *testing.T) {
	for name, tr := range map[string]Transport{
		"inproc": NewInProc(),
		"tcp":    &TCP{},
	} {
		t.Run(name, func(t *testing.T) {
			sys := core.Example1System()
			nodes := startNetwork(t, sys, tr)
			q := foquery.MustParse("r1(X,Y)")
			want, err := testutil.Oracle(sys, "P1", q, []string{"X", "Y"}, false)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 60)
			for i := 0; i < 20; i++ {
				wg.Add(3)
				go func() {
					defer wg.Done()
					tuples, err := nodes["P1"].FetchRelation("P2", "r2")
					if err == nil && len(tuples) != 2 {
						err = fmt.Errorf("fetch got %d tuples", len(tuples))
					}
					errs <- err
				}()
				go func() {
					defer wg.Done()
					resp, err := tr.Call(nodes["P3"].Addr, Request{
						Op: OpQuery, Query: "r3(X,Y)", Vars: []string{"X", "Y"},
					})
					if err == nil && resp.Err != "" {
						err = fmt.Errorf("%s", resp.Err)
					}
					if err == nil && len(resp.Tuples) != 2 {
						err = fmt.Errorf("query got %d tuples", len(resp.Tuples))
					}
					errs <- err
				}()
				go func() {
					defer wg.Done()
					ans, err := nodes["P1"].AnswerQuery(q, []string{"X", "Y"}, QueryOptions{})
					if err == nil && !reflect.DeepEqual(ans, want) {
						err = fmt.Errorf("pca got %v, want %v", ans, want)
					}
					errs <- err
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSetNeighborVsHandleRace mutates the neighbour table while other
// goroutines exercise every reader of it — the OpExportSpec handler,
// the snapshot fan-out and FetchRelation. The seed raced here (an unlocked
// map write against handler reads); this test pins the fix under
// -race.
func TestSetNeighborVsHandleRace(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Rewrites of live entries plus churn on a throwaway id.
			p1.SetNeighbor("P2", nodes["P2"].Addr)
			p1.SetNeighbor(core.PeerID(fmt.Sprintf("X%d", i%4)), "nowhere")
		}
	}()
	var wg2 sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg2.Add(3)
		go func() {
			defer wg2.Done()
			resp, err := tr.Call(p1.Addr, Request{Op: OpExportSpec})
			if err != nil {
				t.Error(err)
			} else if resp.Err != "" {
				t.Error(resp.Err)
			}
		}()
		go func() {
			defer wg2.Done()
			if _, _, err := p1.SnapshotFor(foquery.MustParse("r1(X,Y)"), false); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg2.Done()
			if _, err := p1.FetchRelation("P2", "r2"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
	close(stop)
	wg.Wait()
}

// countingTransport wraps a Transport and counts Calls, to observe the
// TTL cache suppressing network traffic.
type countingTransport struct {
	Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(addr string, req Request) (Response, error) {
	c.calls.Add(1)
	return c.Transport.Call(addr, req)
}

// TestSnapshotCacheTTL checks the TTL caches under AnswerQuery end to
// end: a repeat query inside the window makes zero network calls (the
// spec and relation caches serve its snapshot), expiry refetches every
// peer, and SetNeighbor refetches only the changed peer.
func TestSnapshotCacheTTL(t *testing.T) {
	sys := core.Example1System()
	tr := &perPeerCounter{Transport: NewInProc()}
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	now := time.Unix(1000, 0)
	p1.clock = func() time.Time { return now }
	p1.CacheTTL = time.Minute
	tr.track(nodes)

	q := foquery.MustParse("r1(X,Y)")
	ask := func() {
		t.Helper()
		got, err := p1.AnswerQuery(q, []string{"X", "Y"}, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := testutil.Oracle(sys, "P1", q, []string{"X", "Y"}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answers %v != oracle %v", got, want)
		}
	}
	ask()
	first := tr.reset()
	if first["P2"] == 0 || first["P3"] == 0 {
		t.Fatalf("first query should reach both neighbours, calls %v", first)
	}
	// Within TTL: zero calls.
	ask()
	if c := tr.reset(); len(c) != 0 {
		t.Fatalf("repeat query inside the TTL made network calls %v", c)
	}
	// Past TTL: every neighbour is asked again.
	now = now.Add(2 * time.Minute)
	ask()
	if c := tr.reset(); c["P2"] == 0 || c["P3"] == 0 {
		t.Fatalf("expired caches should refetch both neighbours, calls %v", c)
	}
	// SetNeighbor inside the window refetches only that peer.
	p1.SetNeighbor("P2", nodes["P2"].Addr)
	ask()
	if c := tr.reset(); c["P2"] == 0 || c["P3"] != 0 {
		t.Fatalf("SetNeighbor(P2) should refetch P2 only, calls %v", c)
	}
}

// perPeerCounter counts Calls per target peer of the tracked nodes.
type perPeerCounter struct {
	Transport
	mu     sync.Mutex
	peerAt map[string]core.PeerID
	calls  map[core.PeerID]int
}

func (c *perPeerCounter) track(nodes map[core.PeerID]*Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peerAt = map[string]core.PeerID{}
	for id, n := range nodes {
		c.peerAt[n.BoundAddr()] = id
	}
}

func (c *perPeerCounter) Call(addr string, req Request) (Response, error) {
	c.mu.Lock()
	if id, ok := c.peerAt[addr]; ok {
		if c.calls == nil {
			c.calls = map[core.PeerID]int{}
		}
		c.calls[id]++
	}
	c.mu.Unlock()
	return c.Transport.Call(addr, req)
}

// reset returns the counts since the last reset and clears them.
func (c *perPeerCounter) reset() map[core.PeerID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.calls
	c.calls = nil
	return out
}

// TestFetchRelationCacheTTL checks the relation cache analogously.
func TestFetchRelationCacheTTL(t *testing.T) {
	sys := core.Example1System()
	tr := &countingTransport{Transport: NewInProc()}
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	now := time.Unix(1000, 0)
	p1.clock = func() time.Time { return now }
	p1.CacheTTL = time.Minute

	want, err := p1.FetchRelation("P2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	after := tr.calls.Load()
	got, err := p1.FetchRelation("P2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached fetch %v != %v", got, want)
	}
	if c := tr.calls.Load(); c != after {
		t.Fatal("cached fetch should not hit the network")
	}
	now = now.Add(2 * time.Minute)
	if _, err := p1.FetchRelation("P2", "r2"); err != nil {
		t.Fatal(err)
	}
	if c := tr.calls.Load(); c == after {
		t.Fatal("expired fetch should hit the network")
	}
}

// TestSnapshotParallelIdentical checks that the concurrent neighbour
// fan-out of SnapshotFor assembles the same system (same peers, same
// data) as the sequential walk, in both the direct and transitive
// cases.
func TestSnapshotParallelIdentical(t *testing.T) {
	q := foquery.MustParse("r1(X,Y)")
	for _, transitive := range []bool{false, true} {
		sys := core.Example4System()
		nodes := startNetwork(t, sys, NewInProc())
		p := nodes["P"]
		p.Parallelism = 1
		seqSys, _, err := p.SnapshotFor(q, transitive)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			p.Parallelism = par
			parSys, _, err := p.SnapshotFor(q, transitive)
			if err != nil {
				t.Fatalf("transitive=%v parallelism %d: %v", transitive, par, err)
			}
			if !reflect.DeepEqual(parSys.Peers(), seqSys.Peers()) {
				t.Fatalf("transitive=%v parallelism %d: peers %v != %v",
					transitive, par, parSys.Peers(), seqSys.Peers())
			}
			if got, want := parSys.Global().Key(), seqSys.Global().Key(); got != want {
				t.Fatalf("transitive=%v parallelism %d: data %s != %s", transitive, par, got, want)
			}
		}
	}
}
