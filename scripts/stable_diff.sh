#!/usr/bin/env bash
# Byte-identity check of the stable-mode bench artifacts between the
# working tree and another revision: builds both, runs every
# artifact-writing bench bin under PS_STABLE_ARTIFACTS=1 from fresh
# temporary directories, and `cmp`s each JSON/JSONL artifact pair.
# A refactor that claims "same outputs" should pass this against its
# parent revision.
#
# REV is exported with `git archive` into a temporary directory and
# built there with its own target directory, so a run costs one extra
# release build. Not part of verify.sh for that reason.
#
# Usage:
#   scripts/stable_diff.sh REV      # e.g. scripts/stable_diff.sh HEAD~
set -euo pipefail
rev="${1:?usage: scripts/stable_diff.sh REV}"
cd "$(dirname "$0")/.."
repo="$(pwd)"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base"
git archive --format=tar "$rev" | tar -x -C "$work/base"

echo "==> building the working tree"
cargo build --release -q -p ps-bench --target-dir "$repo/target"
echo "==> building $rev"
(cd "$work/base" && cargo build --release -q -p ps-bench --target-dir "$work/target")

# Runs every artifact-writing bin from bin directory $1 into output
# directory $2.
run_all() {
    local bin="$1" out="$2"
    mkdir -p "$out"
    (
        cd "$out"
        export PS_STABLE_ARTIFACTS=1
        "$bin/bench_planner" > /dev/null
        "$bin/trace_report" trace.jsonl > /dev/null
        "$bin/chaos_recovery" 42 chaos.jsonl > /dev/null
        "$bin/chaos_partition" 42 partition.jsonl > /dev/null
        "$bin/bench_scale" > /dev/null
        "$bin/timeline_report" > /dev/null
    )
}

echo "==> running stable-mode artifacts: working tree"
run_all "$repo/target/release" "$work/out/head"
echo "==> running stable-mode artifacts: $rev"
run_all "$work/target/release" "$work/out/base"

status=0
for name in $( (ls "$work/out/head"; ls "$work/out/base") | sort -u); do
    if [[ ! -f "$work/out/head/$name" || ! -f "$work/out/base/$name" ]]; then
        echo "MISSING   $name (only one tree wrote it)"
        status=1
    elif cmp -s "$work/out/head/$name" "$work/out/base/$name"; then
        echo "IDENTICAL $name"
    else
        echo "DIFFERS   $name (first lines of diff, $rev first):"
        diff "$work/out/base/$name" "$work/out/head/$name" | head -n 20 || true
        status=1
    fi
done
if [[ "$status" != "0" ]]; then
    echo "stable artifacts differ from $rev" >&2
fi
exit "$status"
