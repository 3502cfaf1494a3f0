#!/usr/bin/env bash
# End-to-end check of the paper's numbers: every committed results_*.txt
# file starts with the exact command that produced it. This script reruns
# each command and compares what it prints on stdout with the rest of the
# file, byte for byte. Any difference, or a first line that is not a
# `gssl-bench` binary run, fails the script.
#
# Usage: scripts/results.sh   (from anywhere; about 15 s in release)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p gssl-bench

printed=$(mktemp)
expected=$(mktemp)
log=$(mktemp)
trap 'rm -f "$printed" "$expected" "$log"' EXIT

status=0
for file in results_*.txt; do
    command=$(head -n 1 "$file")
    case "$command" in
        "cargo run --release -p gssl-bench --bin "*) ;;
        *)
            echo "$file: first line is not a gssl-bench command: $command" >&2
            status=1
            continue
            ;;
    esac
    echo "== $file: $command"
    # The command is split on whitespace and run without a shell, so a
    # results file cannot smuggle anything past the check above.
    read -ra argv <<<"$command"
    if ! "${argv[@]}" >"$printed" 2>"$log"; then
        cat "$log" >&2
        echo "$file: its command failed" >&2
        status=1
        continue
    fi
    tail -n +2 "$file" >"$expected"
    if ! diff -u --label "$file" --label "$command" "$expected" "$printed"; then
        echo "$file differs from what its command prints" >&2
        status=1
    fi
done
exit "$status"
