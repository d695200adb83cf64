package harness

import (
	"fmt"

	"icc/internal/beacon"
	"icc/internal/engine"
	"icc/internal/gossip"
	"icc/internal/pool"
	"icc/internal/rbc"
	"icc/internal/types"
)

// wrapDissemination applies the mode's dissemination wrapper: the
// identity for ICC0, the gossip sub-layer for ICC1, and the
// erasure-coded reliable broadcast for ICC2.
func (c *Cluster) wrapDissemination(pid types.PartyID, inner engine.Engine) (engine.Engine, error) {
	switch c.Opts.Mode {
	case ICC1:
		fanout := c.Opts.GossipFanout
		if fanout <= 0 {
			fanout = gossip.DefaultFanout(c.Opts.N)
		}
		cfg := gossip.Config{
			Self:             pid,
			N:                c.Opts.N,
			Fanout:           fanout,
			Seed:             c.Opts.Seed,
			ShareBatchWindow: c.Opts.GossipBatchWindow,
			AdaptiveBatch:    c.Opts.GossipAdaptiveBatch,
			Aggregate:        c.Opts.GossipAggregate,
			// VerifySharesOnly sweeps already trust locally combined
			// aggregates; relay-side combination rests on the same basis.
			// Under VerifyFull relays verify shares while combining.
			TrustShares: c.Opts.Verify != pool.VerifyFull,
			Keys:        c.Pub,
		}
		if c.Opts.BeaconOutputs {
			src, ok := c.beacons[pid].(beacon.OutputSource)
			if !ok {
				return nil, fmt.Errorf("beacon backend has no verifiable outputs (enable SimBeacon)")
			}
			cfg.Outputs = src
		}
		return gossip.New(cfg, inner)
	case ICC2:
		return rbc.Wrap(rbc.Config{
			Self: pid,
			N:    c.Opts.N,
		}, inner), nil
	default:
		return inner, nil
	}
}
