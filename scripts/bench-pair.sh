#!/usr/bin/env bash
# Paired benchmark runs: the parent commit against the working tree.
#
#   scripts/bench-pair.sh <workload> [pairs]        (make bench-pair WORKLOAD=steady-n4)
#
# Builds bench/ once from PARENT (default HEAD — the change under test is
# what the working tree holds on top of it; say PARENT=HEAD~1 once it is
# committed) in a throw-away git worktree and once from the working tree,
# then runs PAIRS (default 10) pairs of untraced runs, pair i with seed i on
# both sides and the side that goes first alternating, so that drift in the
# host's speed falls on both sides alike. Ends with the bench's own
# -compare of the two record files (medians, quartile spread, verdict
# against each metric's bound) and, per end-to-end metric, how many pairs
# the change won: the count a claimed gain needs nine tenths of
# (choosing-metrics guide, section 8). Exit status is -compare's.
#
# Everything is written under .bench_build/pair/ (git-ignored).
set -euo pipefail

workload=${1:?usage: scripts/bench-pair.sh <workload> [pairs]}
pairs=${2:-${PAIRS:-10}}
parent=${PARENT:-HEAD}
seconds=${BENCH_SECONDS:-22} # BENCHMARK.json run_seconds

root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/pair
tree=$out/parent-tree
mkdir -p "$out"
rm -f "$out"/parent.jsonl "$out"/change.jsonl

cleanup() { git -C "$root" worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach "$tree" "$parent" >/dev/null
go build -C "$tree/bench" -o "$out/bench-parent" .
go build -C "$root/bench" -o "$out/bench-change" .

run() { # side seed
	local dir=$root/bench
	[ "$1" = parent ] && dir=$tree/bench
	(cd "$dir" && "$out/bench-$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
		-out "$out/$1.jsonl" >"$out/$1-seed$2.log") ||
		echo "bench-pair: $1 run with seed $2 exited $? (see $out/$1-seed$2.log)" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do run "$side" "$i"; done
	echo "pair $i/$pairs done ($order)"
done

metric() { # file name -> one value per line, in run (= seed) order
	grep -o "\"$2\":{\"value\":[^,]*" "$1" | sed 's/.*://'
}
echo
echo "pairs won by the change (same seed, ties count for neither):"
for spec in finality_p50_ms:lower finality_p90_ms:lower commits_per_s:higher wire_bytes_per_commit:lower setup_s:lower; do
	name=${spec%%:*}
	paste <(metric "$out/parent.jsonl" "$name") <(metric "$out/change.jsonl" "$name") |
		awk -v name="$name" -v better="${spec##*:}" '
			{ if (better == "higher" ? $2 > $1 : $2 < $1) won++; else if ($2 != $1) lost++ }
			END { printf "  %-24s %d won, %d lost of %d\n", name, won, lost, NR }'
done
grep -c '"correct":true,' "$out/parent.jsonl" "$out/change.jsonl" | sed 's/^/correct runs: /'
grep -o '"failed":[0-9]*' "$out/change.jsonl" | sort | uniq -c | sed 's/^/change: runs with /'
echo
# -compare lists every workload of BENCHMARK.json; keep the one that ran.
"$out/bench-change" -compare "$out/parent.jsonl" "$out/change.jsonl" | grep -E "^(workload|$workload) "
