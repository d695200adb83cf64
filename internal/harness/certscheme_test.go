package harness

import (
	"testing"
	"time"

	"icc/internal/crypto/aggsig"
	"icc/internal/node"
	"icc/internal/pool"
)

// The BLS certificate scheme must drive the full protocol stack the same
// way the default multisig scheme does. Pre-verified admission keeps the
// runs fast: shares are still produced by real hash-to-curve signing and
// certificates by real G1 aggregation, but no per-block pairing checks
// run (those are covered by the aggsig unit tests, where one pairing is
// ~1s on the pure big.Int stack).

func TestBLSCertSchemeICC0(t *testing.T) {
	run(t, Options{
		N: 4, Seed: 41, SimBeacon: true,
		Verify:     pool.VerifyPreVerified,
		CertScheme: aggsig.SchemeBLS,
	}, 5, 2*time.Minute)
}

func TestBLSCertSchemeICC1(t *testing.T) {
	// The deployed overlay on top of BLS — relay-side aggregation
	// (constant-size certs out of the gossip layer), adaptive share
	// batching — plus single-output beacon relay.
	run(t, Options{
		N: 7, Seed: 42, Mode: node.ICC1, SimBeacon: true,
		Verify:        pool.VerifyPreVerified,
		CertScheme:    aggsig.SchemeBLS,
		BeaconOutputs: true,
	}, 5, 2*time.Minute)
}

func TestBeaconOutputsICC1Multisig(t *testing.T) {
	// Beacon-output relaying is scheme-independent; exercise it under
	// the default multisig certificates too.
	run(t, Options{
		N: 7, Seed: 43, Mode: node.ICC1, SimBeacon: true,
		Verify:        pool.VerifyPreVerified,
		BeaconOutputs: true,
	}, 8, 2*time.Minute)
}
