#!/usr/bin/env bash
# Chip-scale smoke test: the streaming tiled pipeline end to end under
# an enforced memory cap.
#
# 1. Train a tiny model and stream a ~100k-rect synthetic layout to disk
#    with `mpld gen` (the generator and writer are both incremental).
# 2. Decompose it with `mpld adaptive --tiled true` inside a subshell
#    whose address space is capped by `ulimit -v` — the run must fit in
#    O(tile) working memory plus the model and graph metadata, with no
#    way to silently fall back to holding the layout whole.
# 3. Decompose the same file through the monolithic path and assert the
#    deterministic digest fields (cost, units, routing usage, budget)
#    are bit-identical — the tiled pipeline's parity contract.
# 4. Compare the written mask files byte for byte: tiled vs monolithic,
#    and the monolithic run at --threads 1 vs --threads 2 (a coloring is
#    a pure function of model, layout and seed).
#
# Usage: scripts/chip_scale_smoke.sh [model-path]
# Knobs: MPLD_BIN (default target/release/mpld),
#        MPLD_SMOKE_RECTS (default 100000),
#        MPLD_SMOKE_MEM_KB (ulimit -v cap, default 262144 = 256 MiB;
#        measured peak at 100k rects is ~78 MiB, so the cap holds real
#        headroom while still forbidding layout-proportional blowup).
set -euo pipefail

BIN=${MPLD_BIN:-target/release/mpld}
MODEL=${1:-/tmp/ci-chip-model.bin}
RECTS=${MPLD_SMOKE_RECTS:-100000}
MEM_KB=${MPLD_SMOKE_MEM_KB:-262144}
LAYOUT=/tmp/ci-chip.mpld

"$BIN" train -o "$MODEL" --circuits C432 --cap 20 --epochs 2

"$BIN" gen --rects "$RECTS" --out "$LAYOUT" --seed 5
test -s "$LAYOUT"

echo "== tiled run under ulimit -v ${MEM_KB}kB =="
(
  ulimit -v "$MEM_KB"
  "$BIN" adaptive "$LAYOUT" --model "$MODEL" --tiled true --seed 7 \
    --json true -o /tmp/ci-chip-tiled.masks > /tmp/ci-chip-tiled.json
)
cat /tmp/ci-chip-tiled.json

echo "== monolithic oracle =="
"$BIN" adaptive "$LAYOUT" --model "$MODEL" --seed 7 --threads 1 \
  --json true -o /tmp/ci-chip-serial.masks > /tmp/ci-chip-serial.json
cat /tmp/ci-chip-serial.json

echo "== monolithic, two tail workers =="
"$BIN" adaptive "$LAYOUT" --model "$MODEL" --seed 7 --threads 2 \
  --json true -o /tmp/ci-chip-threads2.masks > /tmp/ci-chip-threads2.json

echo "== mask files byte for byte =="
cmp /tmp/ci-chip-tiled.masks /tmp/ci-chip-serial.masks
cmp /tmp/ci-chip-serial.masks /tmp/ci-chip-threads2.masks
echo "masks identical: tiled = monolithic, --threads 1 = --threads 2"

echo "== digest parity =="
python3 - /tmp/ci-chip-tiled.json /tmp/ci-chip-serial.json <<'EOF'
import json, sys

tiled = json.load(open(sys.argv[1]))
serial = json.load(open(sys.argv[2]))

# Deterministic digest fields; reuse accounting (memo_hits) and timings
# are not part of the digest.
def digest(s):
    usage = dict(s["usage"])
    usage.pop("memo_hits", None)
    return {
        "layout": s["layout"],
        "units": s["units"],
        "seed": s["seed"],
        "cost": s["cost"],
        "usage": usage,
        "budget": s["budget"],
    }

dt, ds = digest(tiled), digest(serial)
if dt != ds:
    print(f"tiled digest diverged:\n  tiled:  {dt}\n  serial: {ds}")
    sys.exit(1)

tiles = tiled.get("tiles", 0)
if tiles <= 1:
    print(f"tiled run degenerated to {tiles} tile(s)")
    sys.exit(1)
if tiled["budget"]["quarantined"] or tiled["budget"]["audit_rejections"]:
    print("tiled run was not audit-clean")
    sys.exit(1)
print(
    f"chip-scale smoke OK: {dt['units']} units over {tiles} tiles, "
    f"{tiled.get('boundary_resolves')} boundary re-solves, "
    f"digest identical to the monolithic run"
)
EOF
