#!/usr/bin/env bash
# Entry point of the repo benchmark (the `command` of BENCHMARK.json):
# builds the real `tirm_server` and the benchmark from source, offline,
# into one target directory, then runs `tirm_benchmark run "$@"`.
# Run it from the root of a checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both workspaces, so the benchmark finds
# `tirm_server` next to itself: the caller's CARGO_TARGET_DIR (a relative
# one means "relative to where the command was started"), or the
# benchmark's own target directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo is asked only when a source is newer than the last build. Asking
# it every time is not free: outside a git checkout `crates/obs/build.rs`
# names a `.git/HEAD` that does not exist, so cargo re-runs it and
# recompiles every crate above it on each call (40 s a run, which is what
# made 92 driver runs overrun their hour). The stamp carries the time the
# last successful build *started*.
stamp="$target/release/tirm_benchmark.built"
sources=("$root/Cargo.toml" "$root/Cargo.lock" "$root/crates" "$root/vendor"
    "$here/Cargo.toml" "$here/Cargo.lock" "$here/src")
up_to_date() {
    [ -f "$stamp" ] && [ -x "$target/release/tirm_server" ] &&
        [ -x "$target/release/tirm_benchmark" ] &&
        [ -z "$(find "${sources[@]}" -newer "$stamp" -print -quit)" ]
}
if ! up_to_date; then
    mkdir -p "$target/release"
    touch "$stamp.new"
    # Build output goes to stderr: the last line of stdout is the result.
    cargo build --release --offline --quiet \
        --manifest-path "$root/Cargo.toml" -p tirm_server --bin tirm_server >&2
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" >&2
    mv "$stamp.new" "$stamp"
fi

exec "$target/release/tirm_benchmark" run "$@"
