#!/usr/bin/env bash
# Proves a behaviour-preserving change byte for byte against a git ref.
#
# Exports <git-ref> with `git archive` into target/chaos-parity/<sha>, builds
# it and the working tree, then on both sides:
#   * runs `star-chaos --skip-engines --seeds 100`, `--synth --seeds 120` and
#     `--synth-guided --seeds 120` with `--json`, and `cmp`s the two reports
#     of each sweep;
#   * replays the committed chaos corpus (`star-chaos --replay-corpus`);
#   * runs `star-wire-chaos --replay-corpus --sweep --seeds 8 --kill-recover`
#     against that side's own `star-serverd`, prints its PASS/FAIL count
#     lines, and compares them with the other side's.
#
# Usage: scripts/chaos_parity.sh <git-ref>     (or: make chaos-parity REF=<git-ref>)
#
# Exits 0 when every report and every count line is identical and every run
# is green, 1 otherwise. Reports and logs stay in target/chaos-parity/.
set -euo pipefail

cd "$(dirname "$0")/.."

REF="${1:?usage: scripts/chaos_parity.sh <git-ref>}"
SHA=$(git rev-parse --verify "$REF^{commit}")
OUT=target/chaos-parity
BASE="$OUT/$SHA"

if [ ! -f "$BASE/Cargo.toml" ]; then
    rm -rf "$BASE"
    mkdir -p "$BASE"
    git archive "$SHA" | tar -x -C "$BASE"
fi

build() {
    (cd "$1" && cargo build --release --offline -q -p star-chaos -p star-serverd -p star-wire-chaos)
}
echo "== chaos-parity: building $REF ($SHA) and the working tree"
build "$BASE"
build .

status=0
fail() {
    echo "FAIL  $1"
    status=1
}

# side name -> checkout directory
declare -A DIRS=([ref]="$BASE" [tree]=".")

SWEEPS=(engines synth guided)
declare -A ARGS=(
    [engines]="--skip-engines --seeds 100"
    [synth]="--synth --seeds 120"
    [guided]="--synth-guided --seeds 120"
)
for sweep in "${SWEEPS[@]}"; do
    for side in ref tree; do
        dir="${DIRS[$side]}"
        # shellcheck disable=SC2086 # ARGS holds several flags
        (cd "$dir" && target/release/star-chaos ${ARGS[$sweep]} --json "$OLDPWD/$OUT/$side-$sweep.json") \
            >"$OUT/$side-$sweep.log" 2>&1 || fail "star-chaos ${ARGS[$sweep]} is red on $side"
    done
    if cmp -s "$OUT/ref-$sweep.json" "$OUT/tree-$sweep.json"; then
        echo "same  star-chaos ${ARGS[$sweep]}"
    else
        fail "star-chaos ${ARGS[$sweep]}: the --json reports differ"
    fi
done

for side in ref tree; do
    dir="${DIRS[$side]}"
    (cd "$dir" && target/release/star-chaos --replay-corpus) >"$OUT/$side-corpus.log" 2>&1 \
        || fail "star-chaos --replay-corpus is red on $side"
    (cd "$dir" && target/release/star-wire-chaos --replay-corpus --sweep --seeds 8 \
        --kill-recover --serverd target/release/star-serverd) >"$OUT/$side-wire.log" 2>&1 \
        || fail "star-wire-chaos is red on $side"
    grep -E '^(PASS|FAIL) ' "$OUT/$side-wire.log" >"$OUT/$side-wire.counts" || true
    echo "== star-wire-chaos on $side"
    cat "$OUT/$side-wire.counts"
done
if cmp -s "$OUT/ref-wire.counts" "$OUT/tree-wire.counts"; then
    echo "same  star-wire-chaos count lines"
else
    fail "star-wire-chaos: the count lines differ"
fi

if [ "$status" -eq 0 ]; then
    echo "chaos-parity: identical to $REF"
else
    echo "chaos-parity: DIFFERS from $REF (see $OUT/)"
fi
exit "$status"
