#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from source (release,
# offline, against steadybench/Cargo.lock) and runs it, forwarding every
# argument (--workload/--only, --seed, --seconds, --trace, --aa).
#
# Run from anywhere; it works from the root of the checkout it lives in and
# reads and writes only there: the build goes to $CARGO_TARGET_DIR, or to the
# repository's own target/ when that is unset, and every temporary file (the
# engines' write-ahead logs included) goes under steadybench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cpus="$(nproc 2>/dev/null || echo 1)"
echo "steadybench: nproc $cpus" >&2
if [ "$cpus" -lt 2 ]; then
    echo "steadybench: warning: the shape is sized for 2 CPUs; with $cpus the two workers of a phase share one and every number is lower" >&2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --locked --quiet --manifest-path steadybench/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/steadybench" ;;
    *) bin="$root/$CARGO_TARGET_DIR/release/steadybench" ;;
esac

tmp="$root/steadybench/out/tmp.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
TMPDIR="$tmp" "$bin" "$@"
