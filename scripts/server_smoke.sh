#!/usr/bin/env bash
# Server smoke test, two phases:
#
# 1. Cache parity: train a tiny model, record the CLI run's digest
#    (`mpld adaptive --json`), start `mpld serve`, POST the same circuit
#    twice under distinct job ids — the repeat must be served entirely
#    from the cross-request caches — assert both served summaries match
#    the CLI digest, then SIGTERM the server and require a clean drain.
#
# 2. Durable jobs: serve with `--journal-dir`, run a journaled job via
#    `mpld submit`, `kill -9` the server, tear the job's journal to the
#    torn-append state a mid-write SIGKILL leaves behind, restart a new
#    server process over the same journal dir, re-submit the same job
#    id, and assert the resumed run reused journal records and its
#    digest is bit-identical to the CLI oracle.
#
# Usage: scripts/server_smoke.sh [model-path]
# Knobs: MPLD_BIN (default target/release/mpld), MPLD_SMOKE_PORT (7979).
# Scratch files go to a private `mktemp -d` directory, removed on exit
# together with any server still running, so concurrent runs (on
# distinct ports) never share a file.
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
PORT=${MPLD_SMOKE_PORT:-7979}
LOG=$WORK/serve.log

"$BIN" train -o "$MODEL" --circuits C432 --cap 20 --epochs 2

# The oracle: the same circuit/seed through the per-request CLI path.
"$BIN" adaptive C432 --model "$MODEL" --seed 7 --threads 1 --json true \
  > "$WORK/cli-summary.json"
cat "$WORK/cli-summary.json"

"$BIN" serve --model "$MODEL" --addr "127.0.0.1:$PORT" --workers 2 \
  > "$LOG" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  grep -q "listening on" "$LOG" 2>/dev/null && break
  sleep 0.1
done
grep -q "listening on" "$LOG"

# Distinct job ids per POST: durable jobs are idempotent, so a
# byte-identical re-POST would replay the first job's event log instead
# of exercising the warm engine path.
post_decompose() {
  python3 - "$PORT" "$1" <<'EOF'
import socket, sys
body = '{"circuit":"C432","seed":7,"job_id":"%s"}' % sys.argv[2]
req = ("POST /decompose HTTP/1.1\r\nHost: smoke\r\n"
       f"Content-Length: {len(body)}\r\n\r\n{body}")
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=120)
s.sendall(req.encode())
out = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    out += chunk
sys.stdout.write(out.decode())
EOF
}

post_decompose smoke-1 > "$WORK/serve-1.txt"
post_decompose smoke-2 > "$WORK/serve-2.txt"

python3 - "$WORK/cli-summary.json" "$WORK/serve-1.txt" "$WORK/serve-2.txt" <<'EOF'
import json, sys

cli = json.load(open(sys.argv[1]))

def done_summary(path):
    for line in open(path):
        if line.startswith('{"event":"done"'):
            return json.loads(line)["summary"]
    sys.exit(f"{path}: no done event in the streamed response")

first = done_summary(sys.argv[2])
repeat = done_summary(sys.argv[3])
for served, who in ((first, "first"), (repeat, "repeat")):
    assert served["cost"] == cli["cost"], (
        f"{who}: served cost {served['cost']} != CLI {cli['cost']}")
    for engine in ("matching", "colorgnn", "ec", "ilp"):
        assert served["usage"][engine] == cli["usage"][engine], (
            f"{who}: served {engine} usage {served['usage'][engine]} "
            f"!= CLI {cli['usage'][engine]}")
assert repeat["inference"]["routing_memo_hits"] > 0, (
    "repeat request missed the cross-request routing memo")
assert repeat["inference"]["units_inferred"] == 0, (
    "repeat request re-ran routing inference")
print("served digests match the CLI run; repeat hit the cross-request memo")
EOF

# Error bodies are JSON too: the unknown-circuit 404 must parse.
python3 - "$PORT" <<'EOF'
import json, socket, sys
body = '{"circuit":"no\\"such"}'
req = ("POST /decompose HTTP/1.1\r\nHost: smoke\r\n"
       f"Content-Length: {len(body)}\r\n\r\n{body}")
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=30)
s.sendall(req.encode())
out = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    out += chunk
head, _, payload = out.decode().partition("\r\n\r\n")
assert head.startswith("HTTP/1.1 404"), head
print(f"unknown-circuit 404 body parses: {json.loads(payload)}")
EOF

# Graceful drain: SIGTERM must finish queued work and exit 0.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=
grep -q "drained, exiting" "$LOG"
echo "phase 1 passed: served digests match the CLI run"

# ---------------------------------------------------------------------
# Phase 2: kill -9 a journaled job mid-append, restart, resume.
# `--colorgnn false` routes the heuristic head's units to the certified
# ILP/EC tail — the part of a run that is journaled — so the resumed
# run has records to reuse.
JOURNAL=$WORK/journal
LOG2=$WORK/serve-resume.log
PORT2=$((PORT + 1))

# The oracle: the same job through the per-request CLI path.
"$BIN" adaptive C432 --model "$MODEL" --seed 7 --threads 1 \
  --colorgnn false --json true > "$WORK/resume-oracle.json"
cat "$WORK/resume-oracle.json"

start_journaled_server() {
  "$BIN" serve --model "$MODEL" --addr "127.0.0.1:$PORT2" --workers 2 \
    --colorgnn false --journal-dir "$JOURNAL" > "$LOG2" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$LOG2" 2>/dev/null && break
    sleep 0.1
  done
  grep -q "listening on" "$LOG2"
}

start_journaled_server
"$BIN" submit C432 --addr "127.0.0.1:$PORT2" --seed 7 \
  --job-id killtest --json true > "$WORK/submit-1.json"

# The kill: SIGKILL the server, then tear the job's journal to the
# state a mid-append SIGKILL leaves on disk (whole records + a torn
# half-line, no trailing newline).
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
python3 - "$JOURNAL/killtest.jsonl" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines()
assert len(lines) >= 3, f"journal too short to tear: {len(lines)} lines"
keep = max(2, 1 + (len(lines) - 1) // 2)
torn = "\n".join(lines[:keep]) + "\n" + lines[keep][: len(lines[keep]) // 2]
open(path, "w").write(torn)
print(f"tore journal to {keep - 1} whole records + a torn half-line")
EOF

# The restart: a fresh server process over the same journal dir; the
# re-submitted job id must resume from the surviving records.
start_journaled_server
"$BIN" submit C432 --addr "127.0.0.1:$PORT2" --seed 7 \
  --job-id killtest --json true > "$WORK/submit-2.json"

python3 - "$WORK/resume-oracle.json" "$WORK/submit-1.json" "$WORK/submit-2.json" <<'EOF'
import json, sys

oracle = json.load(open(sys.argv[1]))
first = json.load(open(sys.argv[2]))["summary"]
resumed = json.load(open(sys.argv[3]))["summary"]

assert first["resumed_units"] == 0, (
    f"uninterrupted run resumed {first['resumed_units']} units")
assert resumed["resumed_units"] > 0, (
    "restarted run reused no journal records")
for served, who in ((first, "first"), (resumed, "resumed")):
    assert served["cost"] == oracle["cost"], (
        f"{who}: served cost {served['cost']} != CLI {oracle['cost']}")
    for engine in ("matching", "colorgnn", "ec", "ilp"):
        assert served["usage"][engine] == oracle["usage"][engine], (
            f"{who}: served {engine} usage {served['usage'][engine]} "
            f"!= CLI {oracle['usage'][engine]}")
print(f"resumed run reused {resumed['resumed_units']} journal records; "
      "digest matches the CLI oracle")
EOF

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=
grep -q "drained, exiting" "$LOG2"
echo "server smoke passed"
