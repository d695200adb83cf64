#!/usr/bin/env bash
# Paired benchmark runs: the parent commit against the working tree.
#
#   scripts/bench-pair.sh <workload|all> [pairs]    (make bench-pair WORKLOAD=steady-n4)
#
# Builds bench/ once from PARENT (default HEAD — the change under test is
# what the working tree holds on top of it; say PARENT=HEAD~1 once it is
# committed), unpacked with git archive into a throw-away directory, and
# once from the working tree, then runs PAIRS (default 10) pairs of
# untraced runs, pair i with seed SEED0+i-1 (SEED0 default 1) on both
# sides and the side that goes first alternating, so that drift in the
# host's speed falls on both sides alike. SEED0=11 PAIRS=2 gives the
# unseen-seed pairs (seeds 11 and 12) a claimed gain must also win. `all` does this for the workloads of BENCHMARK.json in turn: a
# change that claims a gain on one workload owes the other three their
# rows too. Ends with, per workload and end-to-end metric, how many pairs
# the change won — the count a claimed gain needs nine tenths of
# (choosing-metrics guide, section 8) — and one bench -compare table of
# the two record files (medians, quartile spread, verdict against each
# metric's bound). Exit status is -compare's.
#
# TRACED=1 adds, after the pairs, one --trace 1 run per side and workload
# (seed SEED0) and prints the two side by side: bytes sent per commit by
# message kind, messages per commit, the gossip layer's busy share and
# signature checks per commit — where the bytes went, which every change
# to the overlay has to show — and the layers where an n = 4 round spends
# its time: the beacon's busy share and reveal time, the round time, the
# spread of one commit across parties and the gateway's ack lag.
#
# After the pairs, both trees run the virtual-time twin (go run
# ./cmd/iccbench -exp twin, E30), and for each workload and side the
# script prints the twin's p50 / p90 and the residual: the bench's median
# minus the twin, the processor time and queueing the protocol's timers
# do not explain.
#
# Everything is written under .bench_build/pair/ (git-ignored). A run
# first clears what an earlier one left there: the .jsonl records and the
# per-seed and traced .log files, so that what the directory holds after a
# run is that run's alone.
set -euo pipefail

workload=${1:?usage: scripts/bench-pair.sh <workload|all> [pairs]}
pairs=${2:-${PAIRS:-10}}
parent=${PARENT:-HEAD}
seed0=${SEED0:-1}
seconds=${BENCH_SECONDS:-22} # BENCHMARK.json run_seconds

root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/pair
tree=$out/parent-tree
mkdir -p "$out"
rm -f "$out"/parent.jsonl "$out"/change.jsonl "$out"/parent-traced.jsonl "$out"/change-traced.jsonl "$out"/*.log

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
		for side in $order; do run "$side" "$w" $((seed0 + i - 1)); done
		echo "$w: pair $i/$pairs (seed $((seed0 + i - 1))) done ($order)"
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
			grep -oE '"(transport\.bytes_per_commit\.[a-z-]+|transport\.msgs_per_commit|gossip\.busy_share|verify\.checks_per_commit|beacon\.busy_share|beacon\.reveal_ms|core\.round_ms|core\.commit_spread_ms|gateway\.ack_lag_ms)":\{"value":[^,}]*' |
			sed 's/^"\([^"]*\)":{"value":/\1 /' | sort
	}
	echo
	echo "traced runs (--trace 1, seed $seed0), per party and commit or as named: parent, change"
	for w in $workloads; do
		for side in parent change; do run "$side" "$w" "$seed0" traced; done
		join <(layers "$out/parent-traced.jsonl" "$w") <(layers "$out/change-traced.jsonl" "$w") |
			awk -v w="$w" '$2 != 0 || $3 != 0 { printf "  %-16s %-44s %12.3f %12.3f\n", w, $1, $2, $3 }'
	done
fi

twin() { # tree -> "workload p50 p90" per line, ms; nothing if the tree has no twin
	(go run -C "$1" ./cmd/iccbench -exp twin 2>/dev/null || true) |
		awk '$2 ~ /ms$/ && $3 ~ /ms$/ { sub(/ms$/, "", $2); sub(/ms$/, "", $3); print $1, $2, $3 }'
}
median() { # values, one a line -> their median
	sort -g | awk '{ v[NR] = $1 } END { if (NR) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}
twin "$tree" >"$out/parent-twin.txt"
twin "$root" >"$out/change-twin.txt"
echo
echo "twin (E30, virtual time) and residual = bench median - twin, ms:"
for w in $workloads; do
	for side in parent change; do
		if ! read -r _ tp50 tp90 < <(grep "^$w " "$out/$side-twin.txt"); then
			echo "  $w $side: no twin row"
			continue
		fi
		bp50=$(metric "$out/$side.jsonl" "$w" finality_p50_ms | median)
		bp90=$(metric "$out/$side.jsonl" "$w" finality_p90_ms | median)
		awk -v w="$w" -v side="$side" -v tp50="$tp50" -v tp90="$tp90" -v bp50="${bp50:-0}" -v bp90="${bp90:-0}" \
			'BEGIN { printf "  %-16s %-6s twin p50 %7.1f  p90 %7.1f   residual p50 %7.1f  p90 %7.1f\n", w, side, tp50, tp90, bp50 - tp50, bp90 - tp90 }'
	done
done
echo
# -compare lists every workload of BENCHMARK.json; keep the ones that ran.
"$out/bench-change" -compare "$out/parent.jsonl" "$out/change.jsonl" |
	grep -E "^(workload|$(echo $workloads | tr ' ' '|')) "
