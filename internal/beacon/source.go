package beacon

import (
	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// Source is the interface the consensus engines use to interact with the
// random beacon. Its three implementations are one chain (chain.go) under
// three signature schemes (scheme.go): *Beacon, the default, *BLS, and
// *Simulated, which has no cryptography in it.
type Source interface {
	// ShareForRound produces this party's round-k beacon share. Fails if
	// R_{k−1} is unknown, and with ErrPruned below the prune watermark.
	ShareForRound(k types.Round) (*types.BeaconShare, error)
	// CachedShareForRound returns the round-k share only if it is already
	// cached; it never signs. The catch-up path uses it to decide which
	// share rounds can be answered inline and which must be deferred to
	// the async backfill worker.
	CachedShareForRound(k types.Round) (*types.BeaconShare, bool)
	// AddShare records a received share (self-shares included). The bool
	// reports whether the share was newly admitted (false for duplicates),
	// which the engine's write-ahead log uses to persist each distinct
	// share exactly once.
	AddShare(s *types.BeaconShare) (bool, error)
	// ShareCount reports the number of shares held for round k.
	ShareCount(k types.Round) int
	// Reveal attempts to compute R_k from the held shares.
	Reveal(k types.Round) (hash.Digest, bool)
	// Have reports whether R_k is known.
	Have(k types.Round) bool
	// Digest returns H(R_k) if known.
	Digest(k types.Round) (hash.Digest, bool)
	// Permutation returns the round-k ranking (perm[rank] = party).
	Permutation(k types.Round) ([]types.PartyID, bool)
	// RankOf returns party p's rank in round k.
	RankOf(k types.Round, p types.PartyID) (types.Rank, bool)
	// Leader returns the rank-0 party of round k.
	Leader(k types.Round) (types.PartyID, bool)
	// Prune discards state for rounds before the given round.
	Prune(before types.Round)
	// InstallDigest seeds the digest chain with an externally verified
	// H(R_k) — from a certified checkpoint — so a restored party can
	// verify and sign round k+1 immediately without the pruned history.
	InstallDigest(k types.Round, d hash.Digest)
}

// OutputSource is an optional capability of a beacon Source: a scheme
// whose recovered round value is third-party verifiable can export it
// as one compact wire blob, verify a blob received from the network
// against the beacon's global key, and install a verified blob directly
// — making R_k known without holding a single share. The gossip layer
// uses it to relay one BeaconOutput per round instead of t+1 shares,
// which is what keeps per-party beacon traffic constant as n grows
// (paper §1.1's sublinear-communication argument).
//
// The default DLEQ scheme (*Beacon) deliberately does NOT implement
// this interface: its combined signature is checked share-by-share
// against per-party DLEQ proofs, so a third party holding only the
// combined value has nothing to verify it against. *Simulated (hash
// chain, recomputable by anyone) and *BLS (unique signature verified
// with one pairing against the global key) do.
type OutputSource interface {
	Source
	// EncodeOutput returns the round-k output in wire form, once known.
	EncodeOutput(k types.Round) ([]byte, bool)
	// VerifyOutput checks an encoded round-k output against the global
	// key. It fails when R_{k−1} is not yet known, since the signed
	// message chains to it; callers should retry after catching up.
	VerifyOutput(k types.Round, out []byte) error
	// InstallOutput records a round-k output, making R_k known. It
	// performs structural validation only — callers verify first (or
	// consciously skip verification under a trusted-input policy).
	InstallOutput(k types.Round, out []byte) error
}

var (
	_ Source       = (*Beacon)(nil)
	_ OutputSource = (*BLS)(nil)
	_ OutputSource = (*Simulated)(nil)
)
