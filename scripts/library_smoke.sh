#!/usr/bin/env bash
# Persistent-library smoke test: the store-backed flywheel end to end,
# including the kill -9 torn-append state.
#
# 1. Train a tiny model; record the serial oracle digest with a plain
#    `mpld adaptive --json` run (no store).
# 2. Cold store-backed run: same circuit through `--store-dir` — must be
#    bit-identical to the oracle and must populate the store.
# 3. Tear the store file to the on-disk state a mid-append SIGKILL
#    leaves (whole records + a torn half-line, no trailing newline),
#    then flip a bit inside a surviving record.
# 4. `mpld library verify` must detect the corruption (exit 1, typed),
#    `mpld library compact` must reclaim it, verify must then pass.
# 5. One writer per store file: `mpld library compact` under a live
#    `mpld serve --store-dir` must be refused (exit 1, naming the file);
#    after the server drains on SIGTERM, compaction succeeds.
# 6. Warm store-backed run over the degraded-then-compacted store: the
#    digest must still equal the oracle bit-for-bit and the run must be
#    served from the store (zero fresh tail solves).
# 7. Compare the written mask files byte for byte: the oracle at
#    --threads 1 vs --threads 2, and the cold vs the warm store-backed
#    run (a coloring is a pure function of model, layout and seed).
#
# Usage: scripts/library_smoke.sh [model-path]
# Knobs: MPLD_BIN (default target/release/mpld)
# Scratch files go to a private `mktemp -d` directory, removed on exit
# together with the server if it is still running, so concurrent runs
# never share a file.
set -euo pipefail

BIN=${MPLD_BIN:-target/release/mpld}
WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT
MODEL=${1:-$WORK/model.bin}
STORE=$WORK/store

"$BIN" train -o "$MODEL" --circuits C432 --cap 20 --epochs 2

# `--colorgnn false` routes the heuristic head's units to the certified
# ILP/EC tail — the part of a run the store persists — so the warm run
# has solves to reuse.
"$BIN" adaptive C499 --model "$MODEL" --seed 7 --threads 1 \
  --colorgnn false --json true -o "$WORK/oracle.masks" \
  > "$WORK/oracle.json"
cat "$WORK/oracle.json"
"$BIN" adaptive C499 --model "$MODEL" --seed 7 --threads 2 \
  --colorgnn false --json true -o "$WORK/threads2.masks" \
  > "$WORK/threads2.json"

echo "== cold store-backed run =="
"$BIN" adaptive C499 --model "$MODEL" --seed 7 --colorgnn false \
  --store-dir "$STORE" --json true -o "$WORK/cold.masks" \
  > "$WORK/cold.json"

STORE_FILE=$(ls "$STORE"/library-*.jsonl)
test -s "$STORE_FILE"
"$BIN" library stats --store-dir "$STORE"
"$BIN" library verify --store-dir "$STORE"

# The kill: tear the newest store file to the torn-append SIGKILL
# signature, then flip one bit inside a surviving solve record.
python3 - "$STORE_FILE" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines()
solves = [i for i, l in enumerate(lines) if l.startswith('{"t":"s"')]
assert len(solves) >= 3, f"need >=3 solve records to tear, got {len(solves)}"
# Torn tail: keep everything but the final line whole, then half of the
# final line with no trailing newline.
torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
# Bit flip: corrupt a byte in the middle of the first whole solve record.
buf = bytearray(torn.encode())
target = torn.index(lines[solves[0]]) + len(lines[solves[0]]) // 2
buf[target] ^= 0x20
open(path, "wb").write(bytes(buf))
print(f"tore {path} and flipped a bit at offset {target}")
EOF

echo "== verify must detect the bit flip (exit 1) =="
set +e
"$BIN" library verify --store-dir "$STORE"
rc=$?
set -e
test "$rc" -eq 1 || { echo "verify exit $rc, wanted 1" >&2; exit 1; }

echo "== compact reclaims, verify passes =="
"$BIN" library compact --store-dir "$STORE"
"$BIN" library verify --store-dir "$STORE"

echo "== compaction under a live server is refused (exit 1) =="
LOG="$WORK/serve.log"
"$BIN" serve --model "$MODEL" --addr 127.0.0.1:0 --colorgnn false \
  --store-dir "$STORE" > "$LOG" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$LOG" 2>/dev/null && break
  sleep 0.1
done
grep -q "listening on" "$LOG"
set +e
"$BIN" library compact --store-dir "$STORE" 2> "$WORK/compact.err"
rc=$?
set -e
cat "$WORK/compact.err"
test "$rc" -eq 1 || { echo "live compact exit $rc, wanted 1" >&2; exit 1; }
grep -q "$(basename "$STORE_FILE")" "$WORK/compact.err"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=
"$BIN" library compact --store-dir "$STORE"
"$BIN" library verify --store-dir "$STORE"

echo "== warm store-backed run over the healed store =="
"$BIN" adaptive C499 --model "$MODEL" --seed 7 --colorgnn false \
  --store-dir "$STORE" --json true -o "$WORK/warm.masks" \
  > "$WORK/warm.json"

python3 - "$WORK/oracle.json" "$WORK/cold.json" \
  "$WORK/warm.json" <<'EOF'
import json, sys
oracle, cold, warm = (json.load(open(p)) for p in sys.argv[1:4])
for run, who in ((cold, "cold"), (warm, "warm")):
    assert run["cost"] == oracle["cost"], (
        f"{who}: cost {run['cost']} != oracle {oracle['cost']}")
    for engine in ("matching", "colorgnn", "ec", "ilp"):
        assert run["usage"][engine] == oracle["usage"][engine], (
            f"{who}: {engine} usage {run['usage'][engine]} "
            f"!= oracle {oracle['usage'][engine]}")
# Exactly two records were deliberately destroyed (the torn final
# append and the bit-flipped line); the warm run may re-solve those two
# units and nothing else.
fresh = warm["usage"]["ilp"] + warm["usage"]["ec"] - warm["usage"]["memo_hits"]
assert fresh <= 2, f"warm run re-solved {fresh} tail units (expected <=2)"
print(f"store-backed digests match the oracle; warm run re-solved only "
      f"the {fresh} destroyed records")
EOF

echo "== mask files byte for byte =="
cmp "$WORK/oracle.masks" "$WORK/threads2.masks"
cmp "$WORK/cold.masks" "$WORK/warm.masks"
echo "masks identical: --threads 1 = --threads 2, cold store = warm store"

rm -rf "$STORE"
echo "library smoke passed: cold populate, kill -9 tear + bit flip detected,"
echo "compacted clean, warm run bit-identical and served from the store"
