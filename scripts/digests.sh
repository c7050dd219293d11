#!/usr/bin/env bash
# Runs the four end-to-end benchmark workloads (examples/bench_e2e) at
# --seed 0 --seconds 2 and compares each journal_digest with
# scripts/digests.txt. Prints one line per workload; exits non-zero on any
# mismatch. Usage: scripts/digests.sh
#
# The digests hash what each workload observed, so they are only known to
# hold on the kind of machine that recorded them: another libm may round a
# sin or cos differently.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
manifest="$root/examples/bench_e2e/Cargo.toml"

cargo build --release --quiet --offline --manifest-path "$manifest"
status=0
while read -r workload expected; do
  [[ -z "$workload" || "$workload" == \#* ]] && continue
  actual="$(cargo run --release --quiet --offline --manifest-path "$manifest" -- \
    --workload "$workload" --seed 0 --seconds 2 2>&1 |
    sed -n 's/.*journal_digest \([0-9a-f]*\).*/\1/p' | head -n 1)"
  if [[ "$actual" == "$expected" ]]; then
    echo "$workload $actual ok"
  else
    echo "$workload ${actual:-none} MISMATCH: expected $expected"
    status=1
  fi
done < "$root/scripts/digests.txt"
exit "$status"
