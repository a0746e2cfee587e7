#!/usr/bin/env bash
# Same-machine A/B comparison of the perfbench workloads: a base git
# revision against the working tree.
#
#   bash scripts/ab.sh BASE
#   make ab BASE=<rev>
#
# BASE is checked out into a temporary git worktree. For every workload
# in BENCHMARK.json, the script runs 10 alternating base/candidate pairs
# of
#
#   bash perfbench/run.sh --workload W --seed 1 --seconds S
#
# where S is BENCHMARK.json's run_seconds; the order within a pair
# alternates so drift on the host hits both sides.
# For each end-to-end metric it prints the base and candidate medians,
# their ratio, and the base's interquartile spread as a share of its
# median. It exits 1 when a candidate median is worse than the base's by
# more than the metric's BENCHMARK.json bound, or when the candidate's
# share of failed operations is higher than the base's.
set -euo pipefail

base_rev="${1:?usage: scripts/ab.sh BASE}"
pairs=10
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
spec="$root/BENCHMARK.json"
secs="$(jq -r '.run_seconds' "$spec")"
workloads="$(jq -r '.workloads[].name' "$spec")"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
cleanup() {
	git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base_rev"
if [ ! -f "$tmp/base/perfbench/run.sh" ]; then
	echo "ab: $base_rev has no perfbench/run.sh" >&2
	exit 2
fi

# one SIDE WORKLOAD appends one run's JSON result line to $tmp/SIDE-WORKLOAD.jsonl.
one() {
	local dir="$root"
	[ "$1" = base ] && dir="$tmp/base"
	if ! bash "$dir/perfbench/run.sh" --workload "$2" --seed 1 --seconds "$secs" >"$tmp/out" 2>"$tmp/err"; then
		echo "ab: the $1 run of $2 failed:" >&2
		tail -n 20 "$tmp/err" >&2
		exit 1
	fi
	tail -n 1 "$tmp/out" >>"$tmp/$1-$2.jsonl"
}

status=0
printf '%-15s %-12s %14s %14s %7s %9s %6s  %s\n' \
	workload metric base cand ratio base_iqr bound verdict
for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			one base "$w"
			one cand "$w"
		else
			one cand "$w"
			one base "$w"
		fi
	done
	jq -n -r --arg w "$w" \
		--slurpfile spec "$spec" \
		--slurpfile base "$tmp/base-$w.jsonl" \
		--slurpfile cand "$tmp/cand-$w.jsonl" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		def q1: sort | .[0:((length + 1) / 2 | floor)] | median;
		def q3: sort | .[(length / 2 | floor):] | median;
		def vals($runs; $m): [$runs[] | .metrics[$m].value];
		def share($runs): ([$runs[].failed] | add) / ([$runs[].attempted] | add);
		($spec[0].end_to_end[] as $e
			| vals($base; $e.name) as $b | vals($cand; $e.name) as $c
			| ($b | median) as $bm | ($c | median) as $cm
			| (if $bm == 0 then 1 else $cm / $bm end) as $r
			| (if $e.better == "higher" then $r < 1 - $e.bound else $r > 1 + $e.bound end) as $bad
			| [$w, $e.name, $bm, $cm, $r,
				(if $bm == 0 then 0 else (($b | q3) - ($b | q1)) / $bm * 100 end),
				$e.bound * 100, (if $bad then "WORSE" else "ok" end)]),
		(share($base) as $bs | share($cand) as $cs
			| [$w, "failed_share", $bs, $cs, 0, 0, 0, (if $cs > $bs then "WORSE" else "ok" end)])
		| @tsv' >"$tmp/report.tsv"
	while IFS=$'\t' read -r wl m b c r iqr bound verdict; do
		if [ "$m" = failed_share ]; then
			printf '%-15s %-12s %14.4f %14.4f %7s %9s %6s  %s\n' "$wl" "$m" "$b" "$c" - - - "$verdict"
		else
			printf '%-15s %-12s %14.6g %14.6g %7.3f %8.1f%% %5.0f%%  %s\n' \
				"$wl" "$m" "$b" "$c" "$r" "$iqr" "$bound" "$verdict"
		fi
		[ "$verdict" = ok ] || status=1
	done <"$tmp/report.tsv"
done
if [ "$status" -ne 0 ]; then
	echo "ab: the candidate is worse than $base_rev beyond a bound" >&2
fi
exit "$status"
