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
# With --e2e it also builds e2ebench in both trees (two more release
# builds), runs mail_steady, mail_fabric and fault_heal at seeds 1 and
# 9001 (`--seconds 1 --trace 1`), gates on identical `digest` lines and
# prints, without gating, the `count`-unit per-layer lines that differ.
#
# Usage:
#   scripts/stable_diff.sh REV        # e.g. scripts/stable_diff.sh HEAD~
#   scripts/stable_diff.sh REV --e2e  # plus the e2ebench leg
set -euo pipefail
usage="usage: scripts/stable_diff.sh REV [--e2e]"
rev="${1:?$usage}"
e2e=0
case "${2:-}" in
    "") ;;
    --e2e) e2e=1 ;;
    *) echo "$usage" >&2; exit 2 ;;
esac
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

if [[ "$e2e" == "1" ]]; then
    echo "==> building e2ebench: working tree"
    cargo build --release -q --manifest-path e2ebench/Cargo.toml \
        --target-dir "$repo/e2ebench/target"
    echo "==> building e2ebench: $rev"
    (cd "$work/base" && cargo build --release -q --manifest-path e2ebench/Cargo.toml \
        --target-dir "$work/e2e-target")
    for workload in mail_steady mail_fabric fault_heal; do
        for seed in 1 9001; do
            run="$workload seed $seed"
            for tree in head base; do
                bin="$repo/e2ebench/target/release/ps-e2ebench"
                [[ "$tree" == "base" ]] && bin="$work/e2e-target/release/ps-e2ebench"
                # A fresh directory per run keeps .bench_out/ out of both trees.
                dir="$work/e2e/$tree/$workload-$seed"
                mkdir -p "$dir"
                (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
                    --seconds 1 --trace 1 > report.txt) || true
                grep '^digest' "$dir/report.txt" > "$dir/digest.txt" || true
                awk '$3 == "count" { print $1, $2 }' "$dir/report.txt" | sort > "$dir/counts.txt"
            done
            head_dir="$work/e2e/head/$workload-$seed"
            base_dir="$work/e2e/base/$workload-$seed"
            if [[ -s "$head_dir/digest.txt" ]] && cmp -s "$head_dir/digest.txt" "$base_dir/digest.txt"; then
                echo "IDENTICAL e2ebench digest, $run"
            else
                echo "DIFFERS   e2ebench digest, $run ($rev first):"
                cat "$base_dir/digest.txt" "$head_dir/digest.txt"
                status=1
            fi
            # Per-layer work counters: reported, not gated.
            join "$base_dir/counts.txt" "$head_dir/counts.txt" \
                | awk -v run="$run" '$2 != $3 { printf "  counts    %s: %s %s -> %s\n", run, $1, $2, $3 }'
        done
    done
fi

if [[ "$status" != "0" ]]; then
    echo "stable artifacts differ from $rev" >&2
fi
exit "$status"
