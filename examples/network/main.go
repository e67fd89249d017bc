// Networked peers: deploy Example 1's three peers as TCP servers, then
// answer a query at P1 with peer-consistent semantics —
// P1 fetches r2 and r3 over the wire exactly as the paper describes
// ("P1 will first issue a query to P2 to retrieve the tuples in R2").
//
//	go run ./examples/network
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
)

func main() {
	sys := core.Example1System()
	tr := &peernet.TCP{}

	// Start one node per peer on an ephemeral port and exchange
	// addresses (a static overlay; discovery would go here).
	nodes, stop, err := peernet.Deploy(sys, tr)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	for _, id := range sys.Peers() {
		fmt.Printf("peer %s serving at %s\n", id, nodes[id].BoundAddr())
	}

	// A remote client can fetch raw relations ...
	tuples, err := nodes["P1"].FetchRelation("P2", "r2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nP1 fetched r2 from P2 over TCP:", tuples)

	// ... batch several relations into one round-trip (OpFetchBatch) ...
	batch, err := nodes["P2"].FetchRelations("P1", []string{"r1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("P2 batch-fetched r1 from P1:   ", batch["r1"])

	// ... and ask P1 for peer consistent answers; P1 gathers its
	// neighbours' data over the network, repairs virtually, intersects.
	ans, err := nodes["P1"].AnswerQuery(
		foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, peernet.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnetworked PCAs for r1(X,Y):", ans)

	// Third parties can also delegate the whole computation to P1.
	resp, err := tr.Call(nodes["P1"].Addr, peernet.Request{
		Op: peernet.OpPCA, Query: "r1(X,Y)", Vars: []string{"X", "Y"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if resp.Err != "" {
		log.Fatal(resp.Err)
	}
	fmt.Println("delegated PCAs (OpPCA):      ", resp.Tuples)
}
