package node_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"icc/internal/core"
	"icc/internal/gateway"
	"icc/internal/node"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// TestCommandsRideOtherPartiesBlocks: on the live stack, in every
// dissemination mode, commands admitted at one party's gateway only are
// acknowledged from blocks that other parties proposed (delegated
// payloads, DESIGN.md §19) — before, a command could enter the chain in
// its own party's blocks alone — and no command enters the chain twice.
func TestCommandsRideOtherPartiesBlocks(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode node.Mode
	}{{"icc0", node.ICC0}, {"icc1", node.ICC1}, {"icc2", node.ICC2}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			const n, home, client, commands = 4, 2, 9, 40
			c := newTestCluster(t, n, false)
			type cmdID struct{ client, seq uint64 }
			var (
				mu       sync.Mutex
				proposer = make(map[types.Round]types.PartyID) // as party home committed them
				carried  = make([]map[cmdID]types.Round, n)    // per party: the round that committed a command
				offers   = make(map[string]int)                // outcome → count, all parties
				gws      = make([]*gateway.Gateway, n)
				kvs      = make([]*statemachine.KV, n)
				twice    []string
				logBlock = func(i int, b *types.Block) {
					cmds, err := statemachine.DecodePayload(b.Payload)
					if err != nil {
						t.Errorf("party %d committed a payload that does not decode in round %d: %v", i, b.Round, err)
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if i == home {
						proposer[b.Round] = b.Proposer
					}
					for _, cm := range cmds {
						id := cmdID{cm.Client, cm.Seq}
						if first, dup := carried[i][id]; dup {
							twice = append(twice, fmt.Sprintf("party %d: command %v in rounds %d and %d", i, id, first, b.Round))
						}
						carried[i][id] = b.Round
					}
				}
			)
			c.buildAll(n, func(i int, cfg *node.Config) {
				carried[i] = make(map[cmdID]types.Round)
				cfg.Mode = mode.mode
				cfg.Epsilon = 30 * time.Millisecond // the next leader is known when shares are cast
				cfg.Replica = node.NewReplica(gateway.Options{Party: i})
				gws[i], kvs[i] = cfg.Replica.Gateway, cfg.Replica.KV
				logCommit := cfg.Hooks.OnCommit
				cfg.Hooks.OnCommit = func(b *types.Block, now time.Duration) {
					logCommit(b, now)
					logBlock(i, b)
				}
				cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
					mu.Lock()
					offers[outcome]++
					mu.Unlock()
				}
			})

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			receipts := make([]*gateway.Receipt, commands)
			for s := range receipts {
				r, err := gws[home].Submit(ctx, statemachine.Command{
					Client: client, Seq: uint64(s + 1), Op: statemachine.OpSet,
					Key: fmt.Sprintf("k%d", s), Value: []byte{byte(s)},
				})
				if err != nil {
					t.Fatalf("submit %d: %v", s+1, err)
				}
				receipts[s] = r
				time.Sleep(10 * time.Millisecond)
			}
			byOthers := 0
			for s, r := range receipts {
				ack, err := r.Wait(ctx)
				if err != nil {
					t.Fatalf("command %d was not acknowledged: %v", s+1, err)
				}
				// The replica acks inside the commit hook, before the
				// caller's OnCommit has recorded the round's proposer.
				var by types.PartyID
				waitFor(t, 5*time.Second, fmt.Sprintf("command %d acknowledged at round %d, which party %d has not committed", s+1, ack.CommitIndex, home), func() bool {
					mu.Lock()
					defer mu.Unlock()
					var ok bool
					by, ok = proposer[types.Round(ack.CommitIndex)]
					return ok
				})
				if by != home {
					byOthers++
				}
			}
			mu.Lock()
			t.Logf("%d of %d commands committed in other parties' blocks; offers %v", byOthers, commands, offers)
			if offers[core.OfferMerged] == 0 {
				t.Errorf("no offer was ever merged: %v", offers)
			}
			mu.Unlock()
			// Party home leads one round in four; most commands must
			// not have waited for that (at the parent commit: none).
			if byOthers < commands/3 {
				t.Errorf("only %d of %d commands were committed in blocks of parties other than %d", byOthers, commands, home)
			}

			// Every party applies every command exactly once.
			waitFor(t, 30*time.Second, "not every party applied all commands", func() bool {
				for _, kv := range kvs {
					if kv.AppliedSeq(client) != commands {
						return false
					}
				}
				return true
			})
			for i, kv := range kvs {
				if ops := kv.AppliedOps(); ops != commands {
					t.Errorf("party %d applied %d operations, want %d", i, ops, commands)
				}
			}
			mu.Lock()
			for _, msg := range twice {
				t.Error(msg)
			}
			mu.Unlock()
			c.agree()
		})
	}
}
