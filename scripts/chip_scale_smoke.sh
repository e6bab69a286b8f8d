#!/usr/bin/env bash
# Chip-scale smoke test: the streaming tiled pipeline end to end under
# an enforced memory cap.
#
# 1. Train a tiny model and stream a ~100k-rect synthetic layout to disk
#    with `mpld gen` (the generator and writer are both incremental).
# 2. Decompose it with `mpld adaptive` (a layout file always streams
#    through the tiler) inside a subshell whose address space is capped
#    by `ulimit -v` — the run must fit in O(tile) working memory plus the
#    model and graph metadata, with no way to silently fall back to
#    holding the layout whole.
# 3. Decompose it again at --threads 1 and --threads 2 and compare the
#    written mask files byte for byte (a coloring is a pure function of
#    model, layout and seed).
# 4. Streamed versus whole, at the CLI: write circuit C6288 to a file
#    with `mpld generate`, decompose the file (streamed through the
#    tiler) and the circuit name (swept whole), and assert byte-identical
#    masks and identical deterministic digest fields (cost, units,
#    routing usage, budget) — the tiler's parity contract. The
#    chip-scale layout's own comparison with a whole sweep is the
#    ignored release test in tests/tiled_parity.rs.
#
# Usage: scripts/chip_scale_smoke.sh [model-path]
# Knobs: MPLD_BIN (default target/release/mpld),
#        MPLD_SMOKE_RECTS (default 100000),
#        MPLD_SMOKE_MEM_KB (ulimit -v cap, default 262144 = 256 MiB;
#        measured peak at 100k rects is ~78 MiB, so the cap holds real
#        headroom while still forbidding layout-proportional blowup).
# Scratch files go to a private `mktemp -d` directory, removed on exit,
# so concurrent runs never share a file.
set -euo pipefail

BIN=${MPLD_BIN:-target/release/mpld}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
MODEL=${1:-$WORK/model.bin}
RECTS=${MPLD_SMOKE_RECTS:-100000}
MEM_KB=${MPLD_SMOKE_MEM_KB:-262144}
LAYOUT="$WORK/chip.mpld"
C6288="$WORK/c6288.mpld"

"$BIN" train -o "$MODEL" --circuits C432 --cap 20 --epochs 2

"$BIN" gen --rects "$RECTS" --out "$LAYOUT" --seed 5
test -s "$LAYOUT"

echo "== streamed run under ulimit -v ${MEM_KB}kB =="
(
  ulimit -v "$MEM_KB"
  "$BIN" adaptive "$LAYOUT" --model "$MODEL" --seed 7 \
    --json true -o "$WORK/chip.masks" > "$WORK/chip.json"
)
cat "$WORK/chip.json"

echo "== one tail worker =="
"$BIN" adaptive "$LAYOUT" --model "$MODEL" --seed 7 --threads 1 \
  --json true -o "$WORK/chip-threads1.masks" > "$WORK/chip-threads1.json"

echo "== two tail workers =="
"$BIN" adaptive "$LAYOUT" --model "$MODEL" --seed 7 --threads 2 \
  --json true -o "$WORK/chip-threads2.masks" > "$WORK/chip-threads2.json"

echo "== chip mask files byte for byte =="
cmp "$WORK/chip.masks" "$WORK/chip-threads1.masks"
cmp "$WORK/chip-threads1.masks" "$WORK/chip-threads2.masks"
echo "masks identical: capped run = --threads 1 = --threads 2"

echo "== C6288: streamed file versus whole circuit =="
"$BIN" generate C6288 -o "$C6288"
"$BIN" adaptive "$C6288" --model "$MODEL" --seed 7 \
  --json true -o "$WORK/c6288-file.masks" > "$WORK/c6288-file.json"
"$BIN" adaptive C6288 --model "$MODEL" --seed 7 \
  --json true -o "$WORK/c6288-whole.masks" > "$WORK/c6288-whole.json"
cat "$WORK/c6288-file.json"
cmp "$WORK/c6288-file.masks" "$WORK/c6288-whole.masks"
echo "masks identical: streamed file = whole circuit"

echo "== digest parity =="
python3 - "$WORK/chip.json" "$WORK/chip-threads1.json" "$WORK/chip-threads2.json" \
  "$WORK/c6288-file.json" "$WORK/c6288-whole.json" <<'EOF'
import json, sys

chip, chip1, chip2, c_file, c_whole = (json.load(open(p)) for p in sys.argv[1:])

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

def same(a, b, what):
    da, db = digest(a), digest(b)
    if da != db:
        print(f"{what} digest diverged:\n  {da}\n  {db}")
        sys.exit(1)

same(chip, chip1, "chip capped run vs --threads 1")
same(chip1, chip2, "chip --threads 1 vs --threads 2")
same(c_file, c_whole, "C6288 streamed file vs whole circuit")

for s, what in ((chip, "chip"), (c_file, "C6288 file")):
    tiles = s.get("tiles", 0)
    if tiles <= 1:
        print(f"{what} run degenerated to {tiles} tile(s)")
        sys.exit(1)
    if s["budget"]["quarantined"] or s["budget"]["audit_rejections"]:
        print(f"{what} run was not audit-clean")
        sys.exit(1)
if "tiles" in c_whole:
    print("the whole-circuit run reported a tiling")
    sys.exit(1)
print(
    f"chip-scale smoke OK: {chip['units']} units over {chip['tiles']} tiles, "
    f"{chip.get('boundary_resolves')} boundary re-solves; C6288 streamed over "
    f"{c_file['tiles']} tiles, digest identical to the whole sweep"
)
EOF
