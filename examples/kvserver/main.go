// Quickstart for the serving stack: an in-process oftm-server on an
// ephemeral port, a pipelining client driving the line protocol, and
// the per-shard statistics the store keeps — the 60-second tour of
// internal/kv + internal/server.
//
//	go run ./examples/kvserver
//
// For a standalone deployment use the binary instead:
//
//	go run ./cmd/oftm-server -addr 127.0.0.1:7070 -engine nztm -shards 8
//	go run ./cmd/oftm-server -connect 127.0.0.1:7070 -conns 4 -ops 1000
package main

import (
	"fmt"
	"log"

	"repro/internal/server"
)

func main() {
	// A server is one engine + one sharded store + one listener. The
	// engine is chosen by name; every STM engine in the repository
	// serves the same protocol.
	srv, err := server.New(server.Config{
		Addr:   "127.0.0.1:0", // ephemeral port
		Engine: "nztm",
		Shards: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("serving on %s\n\n", srv.Addr())

	cl, err := server.Dial(srv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Single-key requests. Consecutive pipelined GET/SET/DEL requests
	// are folded into one engine transaction server-side.
	show := func(reqs ...string) {
		resps, err := cl.Do(reqs...)
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range reqs {
			fmt.Printf("  > %-22s < %s\n", r, resps[i])
		}
	}
	fmt.Println("single-key requests (pipelined):")
	show("SET balance:alice 100", "SET balance:bob 100", "GET balance:alice")

	// CAS is the optimistic update primitive.
	fmt.Println("\ncompare-and-swap:")
	show("CAS balance:alice 100 90", "CAS balance:alice 100 80")

	// MULTI..EXEC is an atomic cross-shard batch; a failed CAS guard
	// rolls the whole batch back, so this transfer can never half-apply.
	fmt.Println("\natomic multi-key transfer (MULTI..EXEC):")
	show("MULTI", "CAS balance:alice 90 80", "CAS balance:bob 100 110", "EXEC")
	show("GET balance:alice", "GET balance:bob")

	fmt.Println("\nstats:")
	show("LEN", "STATS")

	st := srv.Store().Stats()
	fmt.Printf("\nstore: %d committed txns, cross-shard ratio %.2f\n",
		st.Txns, st.CrossShardRatio())
	for i, sh := range st.Shards {
		if sh.Ops > 0 {
			fmt.Printf("  shard %d: %d ops\n", i, sh.Ops)
		}
	}
}
