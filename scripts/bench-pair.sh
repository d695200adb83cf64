#!/usr/bin/env bash
# Paired benchmark runs: the parent commit against the working tree.
#
#   scripts/bench-pair.sh <workload|all> [pairs]    (make bench-pair WORKLOAD=steady-n4)
#
# Builds bench/ once from PARENT (default HEAD — the change under test is
# what the working tree holds on top of it; say PARENT=HEAD~1 once it is
# committed), unpacked with git archive into a throw-away directory, and
# once from the working tree, then runs PAIRS (default 10) pairs of
# untraced runs, pair i with seed i on both sides and the side that goes
# first alternating, so that drift in the host's speed falls on both sides
# alike. `all` does this for the workloads of BENCHMARK.json in turn: a
# change that claims a gain on one workload owes the other three their
# rows too. Ends with, per workload and end-to-end metric, how many pairs
# the change won — the count a claimed gain needs nine tenths of
# (choosing-metrics guide, section 8) — and one bench -compare table of
# the two record files (medians, quartile spread, verdict against each
# metric's bound). Exit status is -compare's.
#
# TRACED=1 adds, after the pairs, one --trace 1 run per side and workload
# (seed 1) and prints the two side by side: bytes sent per commit by
# message kind, messages per commit, the gossip layer's busy share and
# signature checks per commit — where the bytes went, which every change
# to the overlay has to show.
#
# Everything is written under .bench_build/pair/ (git-ignored).
set -euo pipefail

workload=${1:?usage: scripts/bench-pair.sh <workload|all> [pairs]}
pairs=${2:-${PAIRS:-10}}
parent=${PARENT:-HEAD}
seconds=${BENCH_SECONDS:-22} # BENCHMARK.json run_seconds

root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/pair
tree=$out/parent-tree
mkdir -p "$out"
rm -f "$out"/parent.jsonl "$out"/change.jsonl "$out"/parent-traced.jsonl "$out"/change-traced.jsonl

workloads=$workload
if [ "$workload" = all ]; then
	# The names inside BENCHMARK.json's "workloads" array, in its order.
	workloads=$(awk '/"workloads"/ { on = 1 } on && /"name"/ { gsub(/[",]/, ""); print $2 } on && /^ *\],?$/ { exit }' "$root/BENCHMARK.json")
fi

rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$parent" | tar -x -C "$tree"
go build -C "$tree/bench" -o "$out/bench-parent" .
go build -C "$root/bench" -o "$out/bench-change" .

run() { # side workload seed [traced]
	local dir=$root/bench records=$out/$1.jsonl log=$out/$1-$2-seed$3.log trace=0
	[ "$1" = parent ] && dir=$tree/bench
	[ -n "${4:-}" ] && records=$out/$1-traced.jsonl log=$out/$1-$2-traced.log trace=1
	(cd "$dir" && "$out/bench-$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" \
		-out "$records" >"$log") ||
		echo "bench-pair: $1 run of $2 with seed $3 exited $? (see $log)" >&2
}

for w in $workloads; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then order="parent change"; else order="change parent"; fi
		for side in $order; do run "$side" "$w" "$i"; done
		echo "$w: pair $i/$pairs done ($order)"
	done
done

metric() { # file workload name -> one value per line, in run (= seed) order
	grep "\"workload\":\"$2\"" "$1" | grep -o "\"$3\":{\"value\":[^,]*" | sed 's/.*://'
}
echo
echo "pairs won by the change (same seed, ties count for neither):"
for w in $workloads; do
	for spec in finality_p50_ms:lower finality_p90_ms:lower commits_per_s:higher wire_bytes_per_commit:lower setup_s:lower; do
		name=${spec%%:*}
		paste <(metric "$out/parent.jsonl" "$w" "$name") <(metric "$out/change.jsonl" "$w" "$name") |
			awk -v w="$w" -v name="$name" -v better="${spec##*:}" '
				{ if (better == "higher" ? $2 > $1 : $2 < $1) won++; else if ($2 != $1) lost++ }
				END { printf "  %-16s %-24s %d won, %d lost of %d\n", w, name, won, lost, NR }'
	done
done
grep -c '"correct":true,' "$out/parent.jsonl" "$out/change.jsonl" | sed 's/^/correct runs: /'
grep -o '"failed":[0-9]*' "$out/change.jsonl" | sort | uniq -c | sed 's/^/change: runs with /'

if [ "${TRACED:-0}" = 1 ]; then
	layers() { # file workload -> "name value" per line, sorted by name
		grep "\"workload\":\"$2\"" "$1" |
			grep -oE '"(transport\.bytes_per_commit\.[a-z-]+|transport\.msgs_per_commit|gossip\.busy_share|verify\.checks_per_commit)":\{"value":[^,}]*' |
			sed 's/^"\([^"]*\)":{"value":/\1 /' | sort
	}
	echo
	echo "traced runs (--trace 1, seed 1), per party and commit: parent, change"
	for w in $workloads; do
		for side in parent change; do run "$side" "$w" 1 traced; done
		join <(layers "$out/parent-traced.jsonl" "$w") <(layers "$out/change-traced.jsonl" "$w") |
			awk -v w="$w" '$2 != 0 || $3 != 0 { printf "  %-16s %-44s %12.3f %12.3f\n", w, $1, $2, $3 }'
	done
fi
echo
# -compare lists every workload of BENCHMARK.json; keep the ones that ran.
"$out/bench-change" -compare "$out/parent.jsonl" "$out/change.jsonl" |
	grep -E "^(workload|$(echo $workloads | tr ' ' '|')) "
