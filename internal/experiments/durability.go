package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/gateway"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/types"
)

// Durability measures restart-to-caught-up time against the rounds the
// cluster advanced while a node was down (E23): a live four-party
// cluster runs, one party is killed without warning (kill -9 — its WAL
// loses the unsynced tail), the survivors advance `gap` rounds, and the
// victim restarts. Three configurations:
//
//   - in-memory (seed behavior): no persistence. The restarted process
//     begins at round 1 with an empty pool and replays the entire chain
//     through artifact resync. Beyond the peers' prune horizon the
//     rounds it needs are gone and it flags itself resync-lost (LOST).
//   - wal replay: crash-consistent WAL, no checkpoints. The restart
//     recovers the pre-crash frontier locally and only the downtime gap
//     crosses the network — but a gap beyond the prune horizon is still
//     unrecoverable (LOST).
//   - wal + checkpoints: full durability. Local restart resumes from
//     the newest certified checkpoint plus the WAL suffix, and a gap
//     beyond the prune horizon is closed by a checkpoint transfer from
//     a peer, so no gap is fatal.
//
// Reported per run: the round the restarted process resumed at before
// touching the network, the local recovery time, and the time from
// restart to committing past the frontier the cluster had at restart.
func Durability(scale Scale) *Table {
	t := &Table{
		ID:      "E23",
		Title:   "restart-to-caught-up time vs downtime gap, by durability configuration",
		Columns: []string{"gap", "configuration", "resume", "recover", "converge"},
		Notes: []string{
			fmt.Sprintf("4 parties, in-process transport, prune horizon %d rounds, checkpoint every %d", e11PruneDepth, e11Interval),
			"resume: finalized round after local recovery, before any network traffic (r1 = cold start)",
			"recover: wall-clock time for WAL replay + checkpoint install on restart",
			"converge: restart to committing past the restart-time frontier; LOST = flagged resync-lost; DNF = neither within 30 s",
		},
	}
	// The largest gap deliberately exceeds the prune horizon: it is the
	// row only the checkpoint-transfer path can survive.
	gaps := []int{16, int(e11PruneDepth) - 16, int(e11PruneDepth) + 32}
	modes := []e11Mode{
		{name: "in-memory (seed behavior)"},
		{name: "wal replay", wal: true},
		{name: "wal + checkpoints", wal: true, ckpt: true},
	}
	for _, gap := range gaps {
		g := scale.scaleInt(gap)
		for _, m := range modes {
			r := durabilityRun(g, m)
			converge := "DNF"
			if r.lost {
				converge = "LOST"
			} else if !r.dnf {
				converge = fmt.Sprintf("%.2fs", r.converge.Seconds())
			}
			t.AddRow(fmt.Sprintf("%d", g), m.name,
				fmt.Sprintf("r%d", r.resume),
				fmt.Sprintf("%.0fms", r.recover.Seconds()*1000),
				converge)
		}
	}
	return t
}

const (
	// e11PruneDepth is half the production default so the beyond-horizon
	// row stays cheap to reach in wall-clock time; the interval keeps
	// the documented margin (several boundaries per horizon).
	e11PruneDepth = core.DefaultPruneDepth / 2
	e11Interval   = e11PruneDepth / 4
)

type e11Mode struct {
	name string
	wal  bool
	ckpt bool
}

type e11Result struct {
	resume   types.Round   // finalized round right after local recovery
	recover  time.Duration // local WAL replay + checkpoint install
	converge time.Duration
	dnf      bool
	lost     bool
}

// durabilityRun runs one kill/gap/restart cycle for one configuration.
func durabilityRun(gap int, mode e11Mode) e11Result {
	const (
		n      = 4
		victim = 3
	)
	base, err := os.MkdirTemp("", "icc-e11-*")
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer os.RemoveAll(base)

	log := oracle.NewLog(n)
	cl := newLiveCluster(n, func(i int, cfg *node.Config) {
		cfg.Beacon = beacon.NewSimulated(n, cfg.Self, cfg.Keys.GenesisSeed)
		cfg.DeltaBound = 25 * time.Millisecond
		cfg.PruneDepth = e11PruneDepth
		// The replica is what checkpoints snapshot and a checkpoint
		// install restores; no client writes to it here.
		cfg.Replica = node.NewReplica(gateway.Options{Party: i})
		cfg.Hooks = logged(log, i)
		if mode.wal {
			cfg.Dir = filepath.Join(base, fmt.Sprintf("party-%d", i))
		}
		if mode.ckpt {
			cfg.CheckpointInterval = e11Interval
		}
	})
	defer cl.stop()
	cl.startExcept(-1)

	// Phase 1: run past at least one checkpoint boundary, then kill -9.
	warm := types.Round(2 * e11Interval)
	if !waitFor(time.Now().Add(2*time.Minute), func() bool { return log.Last(victim).Round >= warm }) {
		return e11Result{dnf: true}
	}
	cl.nodes[victim].Kill()
	killedAt := log.Last(victim).Round

	// Phase 2: survivors advance the gap.
	if !waitFor(time.Now().Add(3*time.Minute), func() bool { return log.Last(0).Round >= killedAt+types.Round(gap) }) {
		return e11Result{dnf: true}
	}

	// Phase 3: restart over the same directory.
	cl.dropInbox(victim)
	joinRound := log.Last(0).Round
	recoverStart := time.Now()
	cl.build(victim)
	restarted := cl.nodes[victim]
	res := e11Result{
		resume:  restarted.Engine.FinalizedRound(),
		recover: time.Since(recoverStart),
	}
	if res.resume == 0 {
		res.resume = 1 // cold start: round 1, nothing finalized
	}
	restartAt := time.Now()
	restarted.Start()

	// Phase 4: converge past the restart-time frontier, flag lost, or
	// give up.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if log.Last(victim).Round >= joinRound {
			res.converge = time.Since(restartAt)
			return res
		}
		if restarted.Engine.ResyncLost() != nil {
			res.lost = true
			return res
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.dnf = true
	return res
}
