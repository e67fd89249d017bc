// Package peernet is the networking substrate the paper assumes: peers
// live at network endpoints, answer queries against their local data
// and export their specifications, so that a queried peer can gather
// its neighbours' relations at query time ("P will first issue a query
// to P2 to retrieve the tuples in R2", Example 2) and, in the
// transitive case, assemble the combined specification program of
// Section 4.3 from exported peer fragments.
//
// Two transports are provided: an in-process transport with
// configurable latency (tests, benchmarks) and a TCP transport with
// gob encoding (deployments).
package peernet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Op selects a remote operation.
type Op string

// Remote operations.
const (
	// OpRelations lists the peer's relations.
	OpRelations Op = "relations"
	// OpFetch retrieves all tuples of one relation.
	OpFetch Op = "fetch"
	// OpFetchBatch retrieves several relations in one round-trip: the
	// batched counterpart of OpFetch, so a peer needing k of a
	// neighbour's relations pays one link latency instead of k.
	OpFetchBatch Op = "fetchbatch"
	// OpQuery evaluates a first-order query over the peer's local
	// instance (no repair semantics; the remote peer's raw data).
	OpQuery Op = "query"
	// OpExportSpec returns the peer's specification without facts
	// (schema, DECs, trust) in the sysdsl format plus its neighbour
	// addresses: the cheap first round of a query-relevance-sliced
	// snapshot, which plans which relations to fetch before any data
	// moves.
	OpExportSpec Op = "exportspec"
	// OpPCA asks the remote peer for its own peer consistent answers
	// to a query (Node.AnswerQuery; peer-to-peer query delegation).
	OpPCA Op = "pca"
)

// Request is a wire request. Tuples travel as plain strings: interning
// is a node-local concern, ids are never meaningful across peers.
type Request struct {
	Op    Op
	Rel   string
	Rels  []string // OpFetchBatch: the relations to retrieve
	Query string
	Vars  []string
	// Transitive selects the Section 4.3 semantics for OpPCA.
	Transitive bool
	// Delegate asks OpPCA to answer through the delegated distributed
	// path (QueryOptions.Delegate): the remote peer decomposes its own
	// relevance slice per owning peer and fans the sub-queries out in
	// turn, falling back to its centralized sliced path whenever
	// delegation is not provably exact. Answers are identical either
	// way.
	Delegate bool
	// HopBudget bounds further delegation depth when Delegate is set:
	// each hop decrements it, and a peer receiving 0 answers centrally
	// instead of delegating. Zero-valued requests therefore never
	// recurse; initiators start from DefaultHopBudget.
	HopBudget int
	// Visited lists the peer ids already on the delegation path (the
	// initiator first). A peer whose plan would delegate to a visited
	// peer falls back to the centralized path, so cyclic overlays
	// terminate — and then surface the same cyclic-trust error as the
	// centralized path does.
	Visited []string
}

// Response is a wire response.
type Response struct {
	Err       string
	Relations []string
	Tuples    [][]string
	RelTuples map[string][][]string // OpFetchBatch: relation -> tuples
	Spec      string
	Neighbors map[string]string // peer id -> address
}

// Handler serves requests.
type Handler func(Request) Response

// Transport connects peers.
type Transport interface {
	// Listen binds a handler; the returned address is dialable (useful
	// with ":0" style requests). The closer stops serving.
	Listen(addr string, h Handler) (bound string, close func(), err error)
	// Call performs one request.
	Call(addr string, req Request) (Response, error)
}

// --- in-process transport --------------------------------------------------

// InProc is an in-memory transport with configurable per-call latency,
// used by tests and by the network benchmarks to model link delay.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	next     int
	// Latency is added to every Call.
	Latency time.Duration
}

// NewInProc creates an empty in-process network.
func NewInProc() *InProc { return &InProc{handlers: make(map[string]Handler)} }

// Listen implements Transport.
func (t *InProc) Listen(addr string, h Handler) (string, func(), error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" || addr == ":0" {
		t.next++
		addr = fmt.Sprintf("inproc-%d", t.next)
	}
	if _, dup := t.handlers[addr]; dup {
		return "", nil, fmt.Errorf("peernet: address %s already bound", addr)
	}
	t.handlers[addr] = h
	closer := func() {
		t.mu.Lock()
		delete(t.handlers, addr)
		t.mu.Unlock()
	}
	return addr, closer, nil
}

// Call implements Transport.
func (t *InProc) Call(addr string, req Request) (Response, error) {
	if t.Latency > 0 {
		time.Sleep(t.Latency)
	}
	t.mu.RLock()
	h, ok := t.handlers[addr]
	t.mu.RUnlock()
	if !ok {
		return Response{}, fmt.Errorf("peernet: no peer at %s", addr)
	}
	return h(req), nil
}

// --- TCP transport ----------------------------------------------------------

// TCP serves requests over TCP with gob encoding, one request per
// connection.
type TCP struct {
	// DialTimeout bounds connection establishment; zero means 5s.
	DialTimeout time.Duration
	// IOTimeout bounds each blocking read/write of a served connection:
	// the request must arrive within IOTimeout of the accept, and the
	// response write must complete within IOTimeout of the handler
	// returning (the handler's own computation is not bounded). A hung
	// or stalled client therefore cannot pin a serving goroutine
	// forever. Zero means 30s.
	IOTimeout time.Duration
}

// Accept-loop backoff bounds: a transient Accept error (fd exhaustion,
// an aborted handshake) retries after acceptBackoffMin, doubling up to
// acceptBackoffMax, instead of busy-spinning at 100% CPU.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Listen implements Transport.
func (t *TCP) Listen(addr string, h Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go acceptLoop(ln, h, done, t.ioTimeout())
	closer := func() {
		close(done)
		ln.Close()
	}
	return ln.Addr().String(), closer, nil
}

func (t *TCP) ioTimeout() time.Duration {
	if t.IOTimeout > 0 {
		return t.IOTimeout
	}
	return 30 * time.Second
}

// acceptLoop accepts and serves connections until the listener is
// closed. Errors back off exponentially (acceptBackoffMin doubling to
// acceptBackoffMax) instead of spinning; the loop exits on shutdown
// (done closed, or the listener reports net.ErrClosed) and on permanent
// failures (errors that are not net.Errors — the listener is broken,
// retrying cannot help).
func acceptLoop(ln net.Listener, h Handler, done chan struct{}, ioTimeout time.Duration) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if _, ok := err.(net.Error); !ok {
				return
			}
			if delay == 0 {
				delay = acceptBackoffMin
			} else if delay *= 2; delay > acceptBackoffMax {
				delay = acceptBackoffMax
			}
			timer := time.NewTimer(delay)
			select {
			case <-done:
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		delay = 0
		go serveConn(conn, h, ioTimeout)
	}
}

func serveConn(conn net.Conn, h Handler, ioTimeout time.Duration) {
	defer conn.Close()
	var req Request
	if ioTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(ioTimeout))
	}
	dec := gob.NewDecoder(conn)
	if err := dec.Decode(&req); err != nil {
		return
	}
	resp := h(req)
	if ioTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	}
	enc := gob.NewEncoder(conn)
	_ = enc.Encode(&resp)
}

// Call implements Transport.
func (t *TCP) Call(addr string, req Request) (Response, error) {
	timeout := t.DialTimeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return Response{}, fmt.Errorf("peernet: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(&req); err != nil {
		return Response{}, fmt.Errorf("peernet: send to %s: %w", addr, err)
	}
	var resp Response
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("peernet: receive from %s: %w", addr, err)
	}
	return resp, nil
}
