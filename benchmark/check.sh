#!/usr/bin/env bash
# Offline gate of the benchmark itself: build `tirm_server` and the
# benchmark (run.sh does), smoke-run every workload untraced and traced, check that
# the runs left nothing outside benchmark/out/ (and no temp dir inside
# it), then run the tests (estimators, input determinism, BENCHMARK.json
# names, smoke). Run it from anywhere; wiring it into CI is a later issue.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Every file of the checkout outside build and output directories.
listing() {
    (cd "$root" && find . \
        \( -path ./.git -o -path ./target -o -path ./benchmark/target \
        -o -path ./benchmark/out -o -path "./${target#"$root"/}" \) -prune \
        -o -type f -print | sort)
}
mkdir -p "$here/out"
rm -f "$here/out/check.jsonl"
listing >"$here/out/check.before"

bash "$here/run.sh" --all --smoke --trace 0 --out "$here/out/check.jsonl"
bash "$here/run.sh" --all --smoke --trace 1 --out "$here/out/check.jsonl"

listing >"$here/out/check.after"
if ! diff "$here/out/check.before" "$here/out/check.after"; then
    echo "check.sh: the run left files outside benchmark/out/" >&2
    exit 1
fi
if compgen -G "$here/out/run-*" >/dev/null; then
    echo "check.sh: a run left its temp dir behind in benchmark/out/" >&2
    exit 1
fi
for w in batch-tirm serve-churn replica-follow serve-reads; do
    test -s "$here/out/trace-$w.json" || {
        echo "check.sh: no trace for $w" >&2
        exit 1
    }
done
rm -f "$here/out/check.before" "$here/out/check.after"

cargo test --release --offline --manifest-path "$here/Cargo.toml"
echo "check.sh: ok"
