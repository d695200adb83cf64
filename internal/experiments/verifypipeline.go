package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
)

// VerifyPipeline measures the parallel verification pipeline (E20):
// raw signature-verification throughput of the worker pool at one vs
// GOMAXPROCS workers (plus the verified-digest cache replay), and
// end-to-end commit throughput of a live 4-party runtime cluster behind
// it.
// Unlike the simulation experiments this one runs on wall-clock time:
// the pipeline's whole point is overlapping real crypto work with the
// engine, which virtual time cannot exhibit. Speedups scale with
// physical cores; on a single-core host expect parity, not gains.
func VerifyPipeline(scale Scale) *Table {
	procs := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:      "E20",
		Title:   "parallel verification pipeline: worker scaling, digest cache, live commit throughput",
		Columns: []string{"benchmark", "configuration", "value"},
		Notes: []string{
			fmt.Sprintf("wall-clock measurement on GOMAXPROCS=%d; worker scaling needs physical cores to show", procs),
		},
	}

	pub, privs := dealKeys(7)
	// Pre-sign a batch of distinct notarization shares: the dominant
	// artifact class on the wire (n−t per round per party).
	count := scale.scaleInt(3000)
	shares := make([]types.Message, count)
	for i := range shares {
		bh := hash.SumUint64(hash.DomainBlock, uint64(i))
		signer := types.PartyID(i % 7)
		msg := types.SigningBytes(types.Round(i+1), 0, bh)
		s := privs[signer].Notary.Sign(types.DomainNotarization, msg)
		shares[i] = &types.NotarizationShare{Round: types.Round(i + 1), Proposer: 0,
			BlockHash: bh, Signer: signer, Sig: s.Signature}
	}

	// Every share is distinct and all of them fit in the digest cache, so
	// a first pass verifies each one and a second pass verifies none.
	rate := func(workers int, replay bool) float64 {
		p := verify.New(pool.NewVerifier(pub, pool.VerifyFull), verify.Options{Workers: workers})
		defer p.Close()
		feed := func() time.Duration {
			start := time.Now()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < count; {
					if _, ok := <-p.Out(); ok {
						i++
					}
				}
			}()
			for _, m := range shares {
				p.Submit(transport.Envelope{From: 1, Msg: m})
			}
			wg.Wait()
			return time.Since(start)
		}
		elapsed := feed()
		if replay {
			elapsed = feed() // second pass: every digest is cached
		}
		return float64(count) / elapsed.Seconds()
	}

	t.AddRow("verify throughput", "1 worker", fmt.Sprintf("%.0f artifacts/s", rate(1, false)))
	t.AddRow("verify throughput", fmt.Sprintf("%d workers", procs), fmt.Sprintf("%.0f artifacts/s", rate(procs, false)))
	t.AddRow("verify throughput", "cache replay", fmt.Sprintf("%.0f artifacts/s", rate(procs, true)))

	// Live cluster: 4 parties over the in-process hub for a fixed
	// wall-clock window, behind the pipeline every live node runs.
	window := time.Duration(float64(4*time.Second) * scaleFactor(scale))
	t.AddRow("live commits", fmt.Sprintf("pipelined (%d workers), %v window", procs, window), fmt.Sprintf("%.1f blocks/s", commitsInWindow(window)))
	return t
}

// commitsInWindow runs a live 4-party cluster for the window and
// returns the committed-blocks rate of the slowest party.
func commitsInWindow(window time.Duration) float64 {
	const n = 4
	log := oracle.NewLog(n)
	cl := newLiveCluster(n, func(i int, cfg *node.Config) {
		cfg.Beacon = beacon.NewSimulated(n, cfg.Self, cfg.Keys.GenesisSeed)
		cfg.DeltaBound = 20 * time.Millisecond
		cfg.Hooks = logged(log, i)
	})
	cl.startExcept(-1)
	time.Sleep(window)
	cl.stop()
	return float64(log.Fewest()) / window.Seconds()
}
