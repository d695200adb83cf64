package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"icc/internal/gateway"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// The load is the same on every workload: an open loop at a fixed rate
// from a fixed set of clients, each pinned to one honest party's gateway
// (the state machine applies a client's commands in Seq order, so a
// client cannot spread over replicas). A rate sweep is left out on
// purpose: capacity here is bound by rounds, not by commands.
const (
	loadRate      = 200 // commands per second
	loadClients   = 8
	keysPerClient = 64 // 8 × 64 = 512 keys, uniform
	valueBytes    = 64
	// drainTimeout is how long after the window's end an admitted command
	// may still be acknowledged before it counts as failed.
	drainTimeout = 10 * time.Second
	// readSampleEvery picks the acks that are also read, with their
	// token, on a party other than the one that acknowledged.
	readSampleEvery = 97
)

type cmdState uint8

const (
	cmdPending  cmdState = iota
	cmdAcked             // finality acknowledged and every check passed
	cmdRejected          // refused at admission
	cmdUnacked           // admitted, no acknowledgement within drainTimeout
	cmdWrong             // acknowledged, but a read did not show the write
)

// cmdRec is one command's life, in durations since the cluster's epoch.
// The generator writes due/submitted/admitted, the command's waiter the
// rest; nothing reads a record before both have finished.
type cmdRec struct {
	due       time.Duration // when the schedule wanted it sent
	submitted time.Duration // when the generator got to it
	admitted  time.Duration // when Submit returned
	acked     time.Duration // when the receipt's waiter woke
	round     uint64        // commit-index token of the ack
	home      int           // party whose gateway took it
	state     cmdState
}

// load generates commands from the seed and drives them into a cluster.
type load struct {
	cl   *cluster
	rng  *rand.Rand
	fill [valueBytes - 16]byte
	recs []cmdRec
	wg   sync.WaitGroup
}

func newLoad(cl *cluster, seed int64, total time.Duration) *load {
	l := &load{
		cl:   cl,
		rng:  rand.New(rand.NewSource(seed)),
		recs: make([]cmdRec, int(total.Seconds()*loadRate)),
	}
	l.rng.Read(l.fill[:])
	return l
}

// command builds the i-th command. Its value carries its identity, so a
// read can tell which write it observes.
func (l *load) command(i int) statemachine.Command {
	client := i % loadClients
	value := make([]byte, valueBytes)
	binary.BigEndian.PutUint64(value[0:], uint64(client+1))
	binary.BigEndian.PutUint64(value[8:], uint64(i/loadClients+1))
	copy(value[16:], l.fill[:])
	return statemachine.Command{
		Client: uint64(client + 1),
		Seq:    uint64(i/loadClients + 1),
		Op:     statemachine.OpSet,
		Key:    fmt.Sprintf("c%d/k%02d", client+1, l.rng.Intn(keysPerClient)),
		Value:  value,
	}
}

// homeOf returns the honest party whose gateway takes command i's client,
// or, with offset 1, the next honest party after it.
func (l *load) homeOf(i, offset int) int {
	honest := l.cl.honest
	return honest[(i%loadClients+offset)%len(honest)]
}

// shows reports whether a value read back under cmd's key is cmd's write
// or a later write of the same client (keys are per client, and a client's
// commands apply in order, so nothing else can legitimately be there).
func shows(value []byte, found bool, cmd statemachine.Command) bool {
	return found && len(value) == valueBytes &&
		binary.BigEndian.Uint64(value[0:]) == cmd.Client &&
		binary.BigEndian.Uint64(value[8:]) >= cmd.Seq
}

// run submits every command at its due time, starting at start (since the
// cluster's epoch), and returns once each has been acknowledged or has
// failed. The only goroutines it starts are the receipt waiters, which
// the gateways' backlog bounds.
func (l *load) run(start time.Duration) {
	cl := l.cl
	ctx, cancel := context.WithTimeout(context.Background(),
		start+time.Duration(len(l.recs))*time.Second/loadRate+drainTimeout-cl.since())
	defer cancel()
	for i := range l.recs {
		rec := &l.recs[i]
		rec.due = start + time.Duration(i)*time.Second/loadRate
		cmd := l.command(i)
		rec.home = l.homeOf(i, 0)
		if wait := rec.due - cl.since(); wait > 0 {
			time.Sleep(wait)
		}
		rec.submitted = cl.since()
		receipt, err := cl.gws[rec.home].Submit(ctx, cmd)
		rec.admitted = cl.since()
		if cl.c.traced {
			cl.c.v[cSubmitNs].Add(int64(rec.admitted - rec.submitted))
			cl.c.v[cSubmits].Add(1)
		}
		if err != nil {
			rec.state = cmdRejected
			continue
		}
		l.wg.Add(1)
		go l.await(ctx, i, cmd, receipt)
	}
	l.wg.Wait()
}

// await waits for one command's finality and checks what the ack
// promises: the write is in the acknowledging party's state by then, and
// (for a sample) a read with the ack's token on another party shows it.
func (l *load) await(ctx context.Context, i int, cmd statemachine.Command, receipt *gateway.Receipt) {
	defer l.wg.Done()
	cl, rec := l.cl, &l.recs[i]
	ack, err := receipt.Wait(ctx)
	rec.acked = cl.since()
	if err != nil {
		rec.state = cmdUnacked
		return
	}
	rec.round = ack.CommitIndex
	rec.state = cmdAcked
	if v, ok := cl.kvs[rec.home].Get(cmd.Key); !shows(v, ok, cmd) {
		rec.state = cmdWrong
	}
	if i%readSampleEvery == 0 && len(cl.honest) > 1 {
		res, err := cl.gws[l.homeOf(i, 1)].Read(ctx, cmd.Key, ack.CommitIndex)
		if err != nil || !shows(res.Value, res.Found, cmd) {
			rec.state = cmdWrong
		}
	}
}

// stages is one acknowledged command's latency split at the points the
// bench can see from outside; the five parts sum to its finality latency.
type stages struct {
	genLag          time.Duration // due → the generator got to it
	admit           time.Duration // inside Submit
	inclusionWait   time.Duration // admitted → its party proposed the block that committed it
	proposeToCommit time.Duration // that proposal → its party committed the block
	ackLag          time.Duration // commit hook began → the waiter woke
}

// stagesOf needs the proposal log, so it works in a traced run only.
func (l *load) stagesOf(rec *cmdRec) (stages, bool) {
	log := l.cl.logs[rec.home]
	k := types.Round(rec.round)
	commit, ok := log.commitOf(k)
	if !ok {
		return stages{}, false
	}
	proposed, ok := log.proposeOf(k)
	if !ok {
		return stages{}, false
	}
	return stages{
		genLag:          rec.submitted - rec.due,
		admit:           rec.admitted - rec.submitted,
		inclusionWait:   proposed - rec.admitted,
		proposeToCommit: commit.at - proposed,
		ackLag:          rec.acked - commit.at,
	}, true
}
