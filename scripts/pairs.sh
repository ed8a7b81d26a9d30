#!/usr/bin/env bash
# Compares two revisions of this repository on one bench workload, in pairs:
#
#   make pairs A=<rev> B=<rev> W=rack-timed SEED=1 N=10
#   bash scripts/pairs.sh <rev A> <rev B> <workload> <seed> <pairs> [seconds]
#
# Each side's ./bench binary is built once, from a git worktree of its
# revision in a temporary directory that is removed afterwards. Pair i runs A
# first when i is odd and B first when it is even; every run is
# `bench -workload W -seed SEED -seconds S -trace 0` (S = 28, the benchmark's
# run length, unless given). For every run it prints the six host metrics of
# BENCHMARK.json — host_tuples_per_s, cpu_s_per_mtuple, allocs_per_tuple,
# alloc_bytes_per_tuple, setup_s and peak_rss_mb — and the steal jiffies
# /proc/stat counted while it ran (a noisy neighbour shows there); then for
# each of the six metrics each side's median and quartiles, the pairs B won,
# and the effect size: the ratio of B's median to A's, and A's quartile
# distance (q3 - q1), which the medians' difference must exceed for the
# change to be told apart from A's spread.
set -euo pipefail
if [ $# -lt 5 ]; then
	echo "usage: $0 <rev A> <rev B> <workload> <seed> <pairs> [seconds]" >&2
	exit 2
fi
A=$1 B=$2 W=$3 SEED=$4 N=$5 SECS=${6:-28}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	for s in a b; do
		git -C "$root" worktree remove --force "$tmp/$s" 2>/dev/null || true
	done
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
for s in a b; do
	rev=$A
	[ "$s" = b ] && rev=$B
	git -C "$root" worktree add --detach --quiet "$tmp/$s" "$rev"
	(cd "$tmp/$s" && go build -buildvcs=false -o "$tmp/bench-$s" ./bench)
done

steal() { awk '$1 == "cpu" { print $9 }' /proc/stat; }
metric() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"; }
run() { # run <side> <pair>
	local s0 s1 last
	s0=$(steal)
	last=$("$tmp/bench-$1" -workload "$W" -seed "$SEED" -seconds "$SECS" -trace 0 | tail -n 1)
	s1=$(steal)
	printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$2" "$1" "$(echo "$last" | metric host_tuples_per_s)" \
		"$(echo "$last" | metric cpu_s_per_mtuple)" "$(echo "$last" | metric allocs_per_tuple)" \
		"$(echo "$last" | metric alloc_bytes_per_tuple)" "$(echo "$last" | metric setup_s)" \
		"$(echo "$last" | metric peak_rss_mb)" "$((s1 - s0))" | tee -a "$tmp/runs"
}
printf 'pair\tside\thost_tuples_per_s\tcpu_s_per_mtuple\tallocs_per_tuple\talloc_bytes_per_tuple\tsetup_s\tpeak_rss_mb\tsteal_jiffies\n'
for i in $(seq 1 "$N"); do
	if [ $((i % 2)) -eq 1 ]; then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
done

# quartiles <side> <column>: q1, median and q3 (linear interpolation).
quartiles() {
	awk -F'\t' -v s="$1" -v c="$2" '$2 == s { print $c }' "$tmp/runs" | sort -g |
		awk '{ v[NR] = $1 } END {
			split("0.25 0.5 0.75", q, " ")
			for (i = 1; i <= 3; i++) {
				p = 1 + q[i] * (NR - 1); lo = int(p)
				x = v[lo] + (p - lo) * (v[lo + (lo < NR)] - v[lo])
				printf "%s%.6g", (i > 1 ? " " : ""), x
			}
		}'
}
echo
echo "A = $A, B = $B; $W, seed $SEED, $N pairs of ${SECS} s runs"
names=(host_tuples_per_s cpu_s_per_mtuple allocs_per_tuple alloc_bytes_per_tuple setup_s peak_rss_mb)
for c in 3 4 5 6 7 8; do
	name=${names[c - 3]} better=lower
	[ "$c" -eq 3 ] && better=higher
	won=$(awk -F'\t' -v c="$c" -v hi="$better" '
		{ x[$1, $2] = $c }
		END {
			for (i = 1; x[i, "a"] != ""; i++)
				n += (hi == "higher") ? (x[i, "b"] > x[i, "a"]) : (x[i, "b"] < x[i, "a"])
			print n + 0
		}' "$tmp/runs")
	qa=$(quartiles a "$c") qb=$(quartiles b "$c")
	effect=$(echo "$qa $qb" | awk '{ printf "median B/A %.4g, A q3-q1 %.4g, |median B - median A| %.4g", $5 / $2, $3 - $1, ($5 > $2 ? $5 - $2 : $2 - $5) }')
	echo "$name ($better is better), q1 median q3: A $qa, B $qb; B ahead in $won of $N pairs; $effect"
done
