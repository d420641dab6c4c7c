#!/usr/bin/env bash
# Flake census: runs `cargo test -q -p PKG` RUNS times on every CPU the
# process may use and RUNS times under `taskset -c 0`, counts per test
# the runs it failed in, writes the counts as a Markdown table to OUT,
# and exits 1 when any count is above zero. A run that fails without
# naming a failing test (a crashed test binary, a timeout) is counted
# under a line of its own.
#
#   bash .github/scripts/flake_census.sh [RUNS=10] [PKG=tirm_server] [OUT=flake_census.md]
#
# Run it from the root of the workspace.
set -uo pipefail

runs="${1:-10}"
pkg="${2:-tirm_server}"
out="${3:-flake_census.md}"
# A run that takes longer than this is a hang, and counted as one.
run_limit_s=900

logs="$(mktemp -d)"
trap 'rm -rf "$logs"' EXIT
failures="$logs/failures.tsv"
: >"$failures"

cargo test -q -p "$pkg" --no-run || exit 2

for mode in all_cpus one_cpu; do
    pin=()
    [ "$mode" = one_cpu ] && pin=(taskset -c 0)
    for run in $(seq "$runs"); do
        log="$logs/$mode-$run.log"
        ${pin[@]+"${pin[@]}"} timeout "$run_limit_s" \
            cargo test -q -p "$pkg" --no-fail-fast >"$log" 2>&1
        rc=$?
        named=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u)
        if [ -n "$named" ]; then
            printf '%s\n' "$named" | sed "s/^/$mode\t/" >>"$failures"
        elif [ "$rc" -eq 124 ]; then
            printf '%s\t(run timed out after %ss)\n' "$mode" "$run_limit_s" >>"$failures"
        elif [ "$rc" -ne 0 ]; then
            printf '%s\t(run exited %s naming no failing test)\n' "$mode" "$rc" >>"$failures"
        fi
        echo "$mode run $run/$runs: exit $rc${named:+, failed: $(echo $named)}" >&2
    done
done

{
    echo "### Flake census: \`cargo test -q -p $pkg\`, $runs runs each way"
    echo
    echo "| test | failed runs, all CPUs ($(nproc)) | failed runs, \`taskset -c 0\` |"
    echo "|---|---|---|"
    if [ -s "$failures" ]; then
        awk -F'\t' '{ n[$2, $1]++; t[$2] = 1 }
            END { for (k in t) printf "| %s | %d | %d |\n", k, n[k, "all_cpus"], n[k, "one_cpu"] }' \
            "$failures" | sort
    else
        echo "| (none) | 0 | 0 |"
    fi
} >"$out"
cat "$out"
[ ! -s "$failures" ]
