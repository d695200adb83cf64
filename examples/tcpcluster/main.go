// Tcpcluster: a multi-node ICC deployment over real TCP sockets — the
// same node stack cmd/iccnode runs as separate processes, here hosted in
// one binary on localhost loopback for a self-contained demonstration.
// Each node has its own TCP listener, key material, command queue, and
// state machine; all traffic crosses the network stack with
// length-prefixed frames. The optional argument picks the dissemination
// sub-layer, as iccnode's -mode does: icc0 (the default, direct
// broadcast), icc1 (the gossip overlay) or icc2 (reliable broadcast).
//
//	go run ./examples/tcpcluster
//	go run ./examples/tcpcluster icc1
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/gateway"
	"icc/internal/node"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
)

const n = 4

func main() {
	mode := node.ICC0
	if len(os.Args) > 1 {
		var err error
		if mode, err = node.ParseMode(os.Args[1]); err != nil {
			log.Fatal(err)
		}
	}
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		log.Fatalf("dealing keys: %v", err)
	}

	// Fixed loopback ports for the demo cluster.
	addrs := make(map[types.PartyID]string, n)
	for i := 0; i < n; i++ {
		addrs[types.PartyID(i)] = fmt.Sprintf("127.0.0.1:%d", 9500+i)
	}

	var (
		mu        sync.Mutex
		committed = make([]int, n)
	)
	clk := clock.NewWall()
	reps := make([]*node.Replica, n)
	nodes := make([]*node.Node, n)
	endpoints := make([]*transport.TCP, n)

	for i := 0; i < n; i++ {
		i := i
		ep, err := transport.NewTCP(types.PartyID(i), addrs)
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		endpoints[i] = ep
		reps[i] = node.NewReplica(gateway.Options{Party: i})
		nodes[i], err = node.New(node.Config{
			Self:       types.PartyID(i),
			Keys:       pub,
			Priv:       privs[i],
			Endpoint:   ep,
			Clock:      clk,
			Mode:       mode,
			DeltaBound: 50 * time.Millisecond,
			Replica:    reps[i],
			Hooks: core.Hooks{
				OnCommit: func(*types.Block, time.Duration) {
					mu.Lock()
					committed[i]++
					mu.Unlock()
				},
			},
		})
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
	}
	for i, nd := range nodes {
		nd.Start()
		fmt.Printf("node %d listening on %s\n", i, endpoints[i].Addr())
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	fmt.Println("\nsubmitting one command per node...")
	for i := 0; i < n; i++ {
		err := reps[i].Queue.TrySubmit(statemachine.Command{
			Client: uint64(i + 1),
			Seq:    1,
			Op:     statemachine.OpSet,
			Key:    fmt.Sprintf("from-node-%d", i),
			Value:  []byte("over real TCP"),
		})
		if err != nil {
			log.Fatalf("node %d admission: %v", i, err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		allApplied := true
		for i := 0; i < n; i++ {
			if reps[i].KV.AppliedOps() < n {
				allApplied = false
				break
			}
		}
		if allApplied {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	fmt.Println("\nfinal replica states:")
	ref := reps[0].KV.StateHash()
	for i := 0; i < n; i++ {
		mu.Lock()
		blocks := committed[i]
		mu.Unlock()
		fmt.Printf("  node %d: %d blocks committed, %d keys, state %s (match=%v)\n",
			i, blocks, reps[i].KV.Len(), reps[i].KV.StateHash().Short(), reps[i].KV.StateHash() == ref)
	}
	if reps[n-1].KV.StateHash() != ref {
		log.Fatal("states diverged")
	}
	fmt.Println("\n4 TCP nodes reached identical states — BFT state machine replication over sockets")
}
