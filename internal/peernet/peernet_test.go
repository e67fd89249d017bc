package peernet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// startNetwork deploys every peer of a system as a node on the given
// transport (Deploy) and stops the nodes when the test ends.
func startNetwork(t *testing.T, sys *core.System, tr Transport) map[core.PeerID]*Node {
	t.Helper()
	nodes, stop, err := Deploy(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return nodes
}

// failingListen fails every Listen after the first ok ones.
type failingListen struct {
	*InProc
	ok int
}

func (f *failingListen) Listen(addr string, h Handler) (string, func(), error) {
	if f.ok == 0 {
		return "", nil, fmt.Errorf("injected: listen refused")
	}
	f.ok--
	return f.InProc.Listen(addr, h)
}

// TestDeployConnectsAndStops: Deploy makes every node a neighbour of
// every other, its stop func stops them all, and a node failing to
// start stops the ones started before it.
func TestDeployConnectsAndStops(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes, stop, err := Deploy(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range nodes {
		for mid, m := range nodes {
			if addr, ok := n.NeighborAddr(mid); id != mid && (!ok || addr != m.BoundAddr()) {
				t.Fatalf("%s knows %s at %q, want %q", id, mid, addr, m.BoundAddr())
			}
		}
	}
	stop()
	for id, n := range nodes {
		if _, err := tr.Call(n.Addr, Request{Op: OpRelations}); err == nil {
			t.Fatalf("node %s still serving after stop", id)
		}
	}

	partial := &failingListen{InProc: NewInProc(), ok: 2}
	nodes, stop, err = Deploy(sys, partial)
	if err == nil || nodes != nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Deploy with a failing listener: nodes=%v err=%v", nodes, err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := partial.Call(fmt.Sprintf("inproc-%d", i), Request{Op: OpRelations}); err == nil {
			t.Fatalf("node at inproc-%d still serving after a failed Deploy", i)
		}
	}
	stop() // safe after a partial failure
}

func TestFetchAndQueryInProc(t *testing.T) {
	sys := core.Example1System()
	nodes := startNetwork(t, sys, NewInProc())
	p1 := nodes["P1"]
	tuples, err := p1.FetchRelation("P2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("fetched = %v", tuples)
	}
	// Remote FO query against P3's raw data.
	resp, err := NewInProc().Call("nowhere", Request{Op: OpFetch})
	if err == nil && resp.Err == "" {
		t.Fatal("dangling address should fail")
	}
}

// TestNetworkedPCADirect runs Example 2 over the wire: the PCAs
// computed by the node (which fetches P2's and P3's data remotely)
// must equal the in-memory semantics (testutil.Oracle).
func TestNetworkedPCADirect(t *testing.T) {
	sys := core.Example1System()
	for name, tr := range map[string]Transport{
		"inproc": NewInProc(),
		"tcp":    &TCP{},
	} {
		t.Run(name, func(t *testing.T) {
			nodes := startNetwork(t, sys, tr)
			q := foquery.MustParse("r1(X,Y)")
			ans, err := nodes["P1"].AnswerQuery(q, []string{"X", "Y"}, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := []relation.Tuple{{"a", "b"}, {"a", "e"}, {"c", "d"}}
			if !reflect.DeepEqual(ans, want) {
				t.Fatalf("networked PCAs = %v, want %v", ans, want)
			}
			if oracle, err := testutil.Oracle(sys, "P1", q, []string{"X", "Y"}, false); err != nil || !reflect.DeepEqual(ans, oracle) {
				t.Fatalf("networked PCAs = %v, oracle %v (err %v)", ans, oracle, err)
			}
		})
	}
}

// TestNetworkedPCATransitive runs Example 4 over the wire: P discovers
// C through Q's exported neighbour table and assembles the combined
// program.
func TestNetworkedPCATransitive(t *testing.T) {
	sys := core.Example4System()
	nodes := startNetwork(t, sys, NewInProc())
	// P only knows Q; Q knows C. Drop P's direct knowledge of C to
	// exercise discovery.
	p := nodes["P"]
	delete(p.Neighbors, "C")

	// Direct case first: DEC (3) is vacuously satisfied (s1 empty), so
	// every local tuple is a PCA.
	direct, err := p.AnswerQuery(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, []relation.Tuple{{"a", "b"}}) {
		t.Fatalf("direct = %v", direct)
	}

	// Transitive case: Q imports U(c,b) into S1, so P's R1(a,b) is no
	// longer certain (it is deleted in one solution).
	trans, err := p.AnswerQuery(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, QueryOptions{Transitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 0 {
		t.Fatalf("transitive = %v, want none", trans)
	}
	// R2 gains no certain tuples either (insert differs per solution).
	trans2, err := p.AnswerQuery(foquery.MustParse("r2(X,Y)"), []string{"X", "Y"}, QueryOptions{Transitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trans2) != 0 {
		t.Fatalf("transitive r2 = %v", trans2)
	}
}

func TestOpPCARemoteDelegation(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	// Ask P1 over the network for its PCAs.
	resp, err := tr.Call(nodes["P1"].Addr, Request{
		Op: OpPCA, Query: "r1(X,Y)", Vars: []string{"X", "Y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if len(resp.Tuples) != 3 {
		t.Fatalf("remote PCAs = %v", resp.Tuples)
	}
}

func TestOpRelationsAndErrors(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	resp, err := tr.Call(nodes["P2"].Addr, Request{Op: OpRelations})
	if err != nil || resp.Err != "" {
		t.Fatalf("%v %v", err, resp.Err)
	}
	if len(resp.Relations) != 1 || resp.Relations[0] != "r2" {
		t.Fatalf("relations = %v", resp.Relations)
	}
	resp, _ = tr.Call(nodes["P2"].Addr, Request{Op: OpFetch, Rel: "zzz"})
	if resp.Err == "" {
		t.Fatal("fetch of unknown relation should fail")
	}
	resp, _ = tr.Call(nodes["P2"].Addr, Request{Op: "bogus"})
	if resp.Err == "" {
		t.Fatal("unknown op should fail")
	}
}

func TestOpQueryRemote(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	resp, err := tr.Call(nodes["P3"].Addr, Request{
		Op: OpQuery, Query: "r3(X,Y) & X = a", Vars: []string{"Y"},
	})
	if err != nil || resp.Err != "" {
		t.Fatalf("%v %v", err, resp.Err)
	}
	if len(resp.Tuples) != 1 || resp.Tuples[0][0] != "f" {
		t.Fatalf("tuples = %v", resp.Tuples)
	}
}

func TestInProcLatency(t *testing.T) {
	tr := NewInProc()
	tr.Latency = 5 * time.Millisecond
	_, _, err := tr.Listen("a", func(Request) Response { return Response{} })
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tr.Call("a", Request{Op: OpRelations}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestInProcDuplicateBind(t *testing.T) {
	tr := NewInProc()
	h := func(Request) Response { return Response{} }
	if _, _, err := tr.Listen("x", h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Listen("x", h); err == nil {
		t.Fatal("duplicate bind should fail")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr := &TCP{}
	bound, closer, err := tr.Listen("127.0.0.1:0", func(req Request) Response {
		return Response{Relations: []string{"echo-" + string(req.Op)}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	resp, err := tr.Call(bound, Request{Op: OpRelations})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Relations) != 1 || resp.Relations[0] != "echo-relations" {
		t.Fatalf("resp = %+v", resp)
	}
	if _, err := tr.Call("127.0.0.1:1", Request{}); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestSnapshotMissingNeighbor(t *testing.T) {
	sys := core.Example1System()
	p1, _ := sys.Peer("P1")
	n := NewNode(p1, NewInProc(), nil)
	_, _, err := n.SnapshotFor(foquery.MustParse("r1(X,Y)"), false)
	if err == nil || !strings.Contains(err.Error(), "no address known") {
		t.Fatalf("snapshot without neighbour addresses should fail, got %v", err)
	}
}

// TestNetworkedPCATransitiveTCP repeats the Example 4 discovery
// scenario over real TCP sockets.
func TestNetworkedPCATransitiveTCP(t *testing.T) {
	sys := core.Example4System()
	nodes := startNetwork(t, sys, &TCP{})
	p := nodes["P"]
	delete(p.Neighbors, "C") // force discovery through Q's export

	trans, err := p.AnswerQuery(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, QueryOptions{Transitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 0 {
		t.Fatalf("transitive = %v, want none (r1(a,b) not certain)", trans)
	}
}
