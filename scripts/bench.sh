#!/usr/bin/env sh
# bench.sh — run the repo benchmarks and record machine-readable
# results for regression tracking.
#
# Usage:
#   scripts/bench.sh                          # hot-path set, label "run"
#   scripts/bench.sh 'BenchmarkReD$' optimized
#   scripts/bench.sh 'BenchmarkDecide$' ci-smoke 15   # gate at 15%
#
# Runs `go test -run=NONE -bench=<regex> -benchmem -count=5 .` and
# writes BENCH_<n>.json (first unused n) in the repo root: one run
# object with the given label and, per benchmark, the median ns/op,
# B/op and allocs/op across the five samples. The schema matches the
# committed BENCH_1.json, which pairs the pre-optimisation baseline
# with the first optimised run.
#
# After writing, each benchmark's new medians are diffed against its
# baseline: the newest previously committed BENCH_<k>.json that
# contains it (the last run object in that file), so a benchmark left
# out of the latest recording keeps the baseline it last had. Any
# benchmark whose median ns/op regressed by more than 20% prints a
# WARNING, and B/op and allocs/op shifts beyond the same threshold
# print warnings of their own (allocation deltas are deterministic, so
# they catch a hot-path allocation creeping back even when the timing
# noise hides it). Warnings alone do not fail the script — benchmarks
# on shared CI runners are noisy — but they make regressions visible
# in the log.
#
# A third argument turns the diff into a regression GATE: any
# benchmark whose median ns/op regressed by more than that percentage
# fails the script with exit 1 (CI uses 15). The gate threshold should
# sit above the runner noise floor but below "someone put an
# allocation back on the hot path". In gate mode, a benchmark present
# in any baseline file but absent from this run also fails — provided
# the current -bench pattern selects its name — so deleting or
# renaming a gated benchmark cannot silently shrink the gate set.
set -eu
cd "$(dirname "$0")/.."

pat="${1:-BenchmarkDRC\$|BenchmarkAvgDRC\$|BenchmarkDecide\$|BenchmarkReD\$|BenchmarkScheduleEvaluate\$|BenchmarkFleetDecisionThroughput\$|BenchmarkFleetDecisionThroughputLargeDB\$|BenchmarkFleetBatchThroughput\$|BenchmarkShadowDecide\$|BenchmarkDecisionJSON\$|BenchmarkDecideLargeDB\$|BenchmarkDecideFleet\$|BenchmarkBatchResponseDecode\$|BenchmarkBatchResponseEncode\$|BenchmarkRegistryDecideBatch\$}"
label="${2:-run}"
gate="${3:-0}" # max tolerated ns/op regression in percent; 0 = warn only

out=$(go test -run=NONE -bench="$pat" -benchmem -count=5 .)
printf '%s\n' "$out"

n=1
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
file="BENCH_${n}.json"

printf '%s\n' "$out" | awk -v label="$label" '
function median(s,    a, n, i, j, t) {
	n = split(s, a, " ")
	for (i = 1; i < n; i++)
		for (j = i + 1; j <= n; j++)
			if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
	return a[int((n + 1) / 2)]
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	if (!(name in seen)) { order[++k] = name; seen[name] = 1 }
	# Locate columns by their unit, not position: benchmarks that
	# b.ReportMetric custom units (e.g. "decisions") shift the fields.
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns[name] = ns[name] " " $i
		else if ($(i + 1) == "B/op") bo[name] = bo[name] " " $i
		else if ($(i + 1) == "allocs/op") ao[name] = ao[name] " " $i
	}
}
END {
	printf "{\n  \"runs\": [\n    {\n      \"label\": \"%s\",\n      \"benchmarks\": [\n", label
	for (i = 1; i <= k; i++) {
		nm = order[i]
		printf "        {\"name\": \"%s\", \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			nm, median(ns[nm]), median(bo[nm]), median(ao[nm]), (i < k ? "," : "")
	}
	printf "      ]\n    }\n  ]\n}\n"
}' >"$file"

echo "wrote $file"

# Diff the new medians against each benchmark's baseline: its medians
# in the newest earlier BENCH_<k>.json that contains it (later run
# objects supersede earlier ones within a file, later files supersede
# earlier files).
# Extract "name ns_per_op b_per_op allocs_per_op" rows; for duplicates
# (one per run object) the last occurrence wins.
pairs() {
	tr ',' '\n' <"$1" | tr -d ' "{}[]' | awk -F: '
		$1 == "name" { nm = $2 }
		$1 == "ns_per_op" && nm != "" { ns[nm] = $2 }
		$1 == "b_per_op" && nm != "" { bo[nm] = $2 }
		$1 == "allocs_per_op" && nm != "" { ao[nm] = $2 }
		END { for (nm in ns) print nm, ns[nm], bo[nm], ao[nm] }'
}
: >/tmp/bench_prev.$$
k=1
while [ "$k" -lt "$n" ]; do
	if [ -e "BENCH_${k}.json" ]; then
		pairs "BENCH_${k}.json" | sed "s/\$/ BENCH_${k}.json/" >>/tmp/bench_prev.$$
	fi
	k=$((k + 1))
done
if [ -s /tmp/bench_prev.$$ ]; then
	echo "comparing each benchmark against the newest BENCH file containing it ..."
	pairs "$file" >/tmp/bench_new.$$
	status=0
	awk -v gate="$gate" -v pat="$pat" '
		NR == FNR { prev[$1] = $2; pbo[$1] = $3; pao[$1] = $4; src[$1] = $5; next }
		{ cur[$1] = 1 }
		($1 in prev) && prev[$1] > 0 {
			ratio = $2 / prev[$1]
			printf "  %-45s %12.0f -> %12.0f ns/op (%+.1f%%, vs %s)\n", $1, prev[$1], $2, (ratio - 1) * 100, src[$1]
			if (gate + 0 > 0 && ratio > 1 + gate / 100) {
				printf "FAIL: %s regressed %.1f%% vs %s (%.0f -> %.0f ns/op, gate %s%%)\n", \
					$1, (ratio - 1) * 100, src[$1], prev[$1], $2, gate
				bad = 1
			} else if (ratio > 1.2) {
				printf "WARNING: %s regressed %.1f%% vs %s (%.0f -> %.0f ns/op)\n", \
					$1, (ratio - 1) * 100, src[$1], prev[$1], $2
			}
			# B/op and allocs/op shifts are warn-only, never gated: they
			# are deterministic, so any change is worth a line in the log,
			# but a deliberate memory/time trade must not fail CI.
			if (pbo[$1] > 0 && $3 / pbo[$1] > 1.2)
				printf "WARNING: %s B/op grew %.1f%% vs %s (%.0f -> %.0f B/op)\n", \
					$1, ($3 / pbo[$1] - 1) * 100, src[$1], pbo[$1], $3
			if (pao[$1] > 0 && $4 / pao[$1] > 1.2)
				printf "WARNING: %s allocs/op grew %.1f%% vs %s (%.0f -> %.0f allocs/op)\n", \
					$1, ($4 / pao[$1] - 1) * 100, src[$1], pao[$1], $4
		}
		END {
			# A benchmark that has a baseline but produced no samples this
			# run is the worst kind of regression: a deleted or renamed
			# benchmark silently shrinks the gate set, and every later run
			# passes vacuously. Only names the current -bench pattern selects
			# are expected, though — the baselines may hold a wider set than
			# this invocation runs, so match each root segment (the name up
			# to the first "/", covering sub-benchmarks) against the pattern
			# before demanding it.
			for (nm in prev) {
				root = nm
				sub(/\/.*/, "", root)
				if (root !~ pat) continue
				if (!(nm in cur)) {
					if (gate + 0 > 0) {
						printf "FAIL: %s present in %s but missing from this run (deleted or renamed?)\n", nm, src[nm]
						bad = 1
					} else {
						printf "WARNING: %s present in %s but missing from this run\n", nm, src[nm]
					}
				}
			}
			exit bad
		}' /tmp/bench_prev.$$ /tmp/bench_new.$$ || status=$?
	rm -f /tmp/bench_new.$$
fi
rm -f /tmp/bench_prev.$$
if [ "${status:-0}" -ne 0 ]; then
	echo "bench regression gate failed (threshold ${gate}%)"
	rm -f "$file" # a gated run is a probe, not a new baseline
	exit 1
fi
