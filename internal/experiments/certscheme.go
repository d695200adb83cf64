package experiments

import (
	"fmt"
	"time"

	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/harness"
	"icc/internal/node"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// CertScheme measures the certificate-scheme ablation (experiment E14):
// for n ∈ {16, 31, 64, 100} under the deployed ICC1 overlay plus
// single-output beacon relay, the commits/s, per-party
// bytes per round, and wire size of one notarization certificate under
//
//   - multisig: the default scheme — a certificate carries one ed25519
//     signature per quorum member, so cert bytes grow linearly in n;
//   - bls:      BLS12-381 aggregation — a certificate is a signer
//     bitmap plus one 96-byte G1 point, so cert bytes stay flat (the
//     bitmap adds one byte per 8 parties).
//
// The headline claim: under BLS the certificate column goes flat —
// a signer bitmap plus one 96-byte G1 point — while multisig's
// multiplies with the quorum (~44× more cert bytes at n=100). The
// per-party totals tell a subtler, honest story: BLS signature shares
// are 96-byte G1 points against ed25519's 64 bytes, and once relay
// aggregation caps certificate traffic the share flood dominates
// steady-state gossip — so BLS trades 1.5× pricier shares for ~44×
// cheaper certificates. The flat cert curve is what matters wherever
// certificates outlive the round: checkpoint and catch-up artifacts,
// durable block storage, and finality proofs handed to clients all
// carry one certificate with no surrounding share flood.
//
// Runs use pre-verified admission (nothing in the sweep forges): BLS
// signing is real hash-to-curve work on every share, and relays combine
// by G1 addition, but no per-block pairings run — one pairing costs ~1s
// on the dependency-free big.Int stack, which would turn a 100-party
// sweep into hours without changing any byte counts. The pairing path
// is covered by the aggsig/checkpoint suites and the micro-benchmarks.
func CertScheme(scale Scale) *Table {
	t := &Table{
		ID:    "E14",
		Title: "certificate schemes: bytes/party and commits/s, multisig vs BLS (ICC1 overlay)",
		Columns: []string{"n", "scheme", "commits/s", "KiB/party/round", "cert bytes",
			"×bytes vs n=16", "×n vs 16"},
		Notes: []string{
			"cert bytes = wire size of one notarization certificate (tag + signer set + proof)",
			"BLS cert bytes stay ~flat in n (bitmap + one G1 point); multisig grows with the quorum",
			"BLS shares are 96B G1 points vs ed25519's 64B, so share-flood-dominated per-party totals favor multisig; cert-dominated artifacts (checkpoints, catch-up, client proofs) favor BLS",
			"×bytes vs n=16 below ×n vs 16 ⇒ per-party cost grows sublinearly in n (paper §1.1)",
		},
	}
	blocks := scale.scaleInt(6)
	sizes := []int{16, 31, 64, 100}
	schemes := []aggsig.SchemeID{aggsig.SchemeMultisig, aggsig.SchemeBLS}
	base := make(map[aggsig.SchemeID]float64)
	for _, n := range sizes {
		for _, scheme := range schemes {
			commitRate, perParty, c := runOverlayCell(harness.Options{
				N:             n,
				Seed:          int64(14000 + n),
				Delay:         simnet.Fixed{D: 10 * time.Millisecond},
				DeltaBound:    50 * time.Millisecond,
				Mode:          node.ICC1,
				SimBeacon:     true,
				Verify:        pool.VerifyPreVerified,
				PruneDepth:    simPruneDepth,
				CertScheme:    scheme,
				BeaconOutputs: true,
			}, blocks)
			if n == sizes[0] {
				base[scheme] = perParty
			}
			certBytes := sampleCertSize(c)
			t.AddRow(fmt.Sprintf("%d", n), scheme.String(),
				fmt.Sprintf("%.1f", commitRate),
				fmt.Sprintf("%.1f", perParty/1024),
				fmt.Sprintf("%d", certBytes),
				fmt.Sprintf("%.2f", perParty/base[scheme]),
				fmt.Sprintf("%.2f", float64(n)/float64(sizes[0])))
		}
	}
	return t
}

// sampleCertSize builds one quorum notarization certificate from the
// cluster's own key material and returns its wire size — the real
// artifact the pool admits and the relays forward, not a formula.
func sampleCertSize(c *harness.Cluster) int {
	q := c.Pub.Notary.Quorum()
	msg := types.SigningBytes(1, 0, hash.Digest{})
	shares := make([]*aggsig.Share, q)
	for i := 0; i < q; i++ {
		shares[i] = c.Privs[i].Notary.Sign(types.DomainNotarization, msg)
	}
	cert, err := c.Pub.Notary.CombineVerified(shares)
	if err != nil {
		panic(fmt.Sprintf("experiments: sample certificate: %v", err))
	}
	return len(cert.Encode())
}
