GO ?= go

.PHONY: build test verify verify2 race vet vet-bench fmt-check assembly-check bench bench-certscheme bench-scale bench-suite bench-pair bench-crypto fuzz-smoke chaos

# bench/ is a module of its own (see vet-bench): building it here makes a
# rename in internal/ that breaks the benchmark fail tier-1.
build:
	$(GO) build ./...
	$(GO) build -C bench -o /dev/null .

test:
	$(GO) test ./...

# Tier-1 verify: the invariant every PR must keep green.
verify: build vet test

vet:
	$(GO) vet ./...

# Race-test the concurrency-heavy layers (real goroutines + sockets).
race:
	$(GO) test -race ./internal/clock/... ./internal/metrics/... ./internal/obs/... ./internal/oracle/... ./internal/transport/... ./internal/runtime/... ./internal/node/... ./internal/simnet/... ./internal/gossip/... ./internal/pool/... ./internal/verify/... ./internal/backfill/... ./internal/beacon/... ./internal/wal/... ./internal/checkpoint/... ./internal/gateway/... ./internal/statemachine/... ./internal/crypto/aggsig/... ./internal/crypto/bls/... ./internal/crypto/sig/...

# The repository benchmark (BENCHMARK.json, bench/README.md): every
# workload untraced then traced, with trace.overhead_pct. It is the one
# trajectory; the evaluation tables (`go run ./cmd/iccbench`) are recorded
# in EXPERIMENTS.md.
bench: bench-suite
bench-suite:
	$(GO) run -C bench . --workload all

# The certificate-scheme chart alone (E14): bytes/party, commits/s, and
# cert wire size for multisig vs BLS at n ∈ {16, 31, 64, 100}.
bench-certscheme:
	$(GO) run ./cmd/iccbench -exp certscheme

# The scale-out chart alone (E13): commits/s and bytes/party for
# n ∈ {16, 31, 64, 100}, and the n = 31 TCP leg.
bench-scale:
	$(GO) run ./cmd/iccbench -exp scaleout

# Parent commit against the working tree on one workload, or on the four of
# BENCHMARK.json in turn with WORKLOAD=all (~35 min): >= 10 alternating
# pairs each, the count of pairs won, then one bench -compare table of the
# two sets of records. PARENT (default HEAD), PAIRS (default 10) and SEED0
# (the first pair's seed, default 1) override.
#   make bench-pair WORKLOAD=steady-n4
#   make bench-pair WORKLOAD=steady-n4 SEED0=11 PAIRS=2   (the unseen seeds)
#   make bench-pair WORKLOAD=all
#   make bench-pair WORKLOAD=tcp-gossip-n13 TRACED=1   (+ a traced run a side: bytes by kind, n = 4 layers)
bench-pair:
	scripts/bench-pair.sh $(WORKLOAD) $(PAIRS)

# The micro-benchmarks under the DLEQ beacon, bottom up: field and group
# (ec), proofs (dleq), shares (thresig), Lagrange combination (shamir), and
# the Reveal that makes a round known (beacon); then the ed25519 checks of
# S_auth, S_notary and S_final: one signature against crypto/ed25519's
# (edwards25519, sig), a key's table (NewPublicKey), one share and one
# 13-party certificate (multisig). EXPERIMENTS.md E24 and E26 are these
# tables at their parent commits and after them.
bench-crypto:
	$(GO) test -run '^$$' -bench 'PointMul|MultiMul2|BaseMul|HashToPoint|Prove|Verify|Sign$$|SignShare|VerifyShare|RecoverPoint|Reveal|NewPublicKey' -benchmem \
		./internal/crypto/ec ./internal/crypto/dleq ./internal/crypto/thresig ./internal/crypto/shamir ./internal/beacon \
		./internal/crypto/edwards25519 ./internal/crypto/sig ./internal/crypto/multisig

# Every Fuzz* target of the root module for ten seconds each, from its
# seed corpus on: the decoders that read bytes off the wire or the disk,
# and the limb arithmetic against its big.Int reference. go test -fuzz
# takes one package and one target at a time.
fuzz-smoke:
	@grep -rHoE --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]+' . | \
	while IFS=: read -r file decl; do \
		echo "fuzz-smoke: $${decl#func } in $$(dirname $$file)"; \
		$(GO) test -run '^$$' -fuzz "^$${decl#func }$$" -fuzztime 10s $$(dirname $$file) || exit 1; \
	done

# Every Go file gofmt would rewrite, the bench's scratch tree aside; the
# target fails if there is one.
fmt-check:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:" >&2; echo "$$out" >&2; exit 1; fi

# bench/ is a module of its own, which the root build, vet and test do not
# see: an internal rename would break it unnoticed.
vet-bench:
	$(GO) vet -C bench . && $(GO) test -C bench .

# One node assembly: internal/node wires the stack — node.Stack from the
# event loop down, for live and simulated parties alike, node.New the rest
# of a live node — and bench/ mirrors it on purpose. An engine, a
# dissemination layer or a runner constructed anywhere else is a hand copy
# growing back.
assembly-check:
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'core\.NewEngine\(|gossip\.New\(|rbc\.Wrap\(|runtime\.NewRunner\(' . \
		| grep -vE '^\./(internal/node|bench)/'; then \
		echo 'assembly-check: build parties with internal/node (New or Stack), not by hand' >&2; exit 1; fi

# Adversary campaign under the race detector: the matrix sweep (the ICC0
# cells of TestChaosCampaign and the ICC1 cells of TestChaosCampaignICC1,
# which the same pattern selects), the threshold-boundary withholding
# tests, the delegated-payload ordering test (forked rounds, forwards out
# of order) and the next-leader cell (a Byzantine party that mangles the
# forwards it is sent, or sends junk ones), the lying-Status cell (a
# Byzantine party that sends every peer a Status every millisecond), the
# beacon-junk cell (a Byzantine party that floods every peer with well-formed
# junk beacon shares while relays trust their shares), and the lying-cut
# cell (a Byzantine party whose blocks misstate when they were cut, or
# come late, to steer the honest leaders' measured cuts). A failing
# cell prints the path of a replayable JSONL trace; re-run it with
#   go test ./internal/harness -run TestCampaignFailureReplaysByteIdentical
# or feed the path to harness.ReplayTrace / harness.Shrink directly.
chaos:
	$(GO) test -race -count=1 -timeout 30m -run 'TestChaosCampaign|TestWithholdExactlyTStillFinalizes|TestWithholdTPlusOneStallsThenRecovers|TestDelegatedPayloadsKeepSeqOrderAcrossForkedRounds|TestChaosNextLeader|TestChaosLyingStatus|TestChaosBeaconJunk|TestChaosLyingCut' ./internal/harness

# Tier-2 verify: static analysis and formatting, the one-assembly check, race detection
# on the layers where goroutines, channels, and sockets actually
# interleave — the fuzz targets for ten seconds each, and the seeded
# adversary campaign (safety + liveness across the behavior matrix).
verify2: vet vet-bench fmt-check assembly-check race fuzz-smoke chaos
