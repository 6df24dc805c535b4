#!/usr/bin/env bash
# Out-of-process smoke test for the sharded serving fleet: partition the
# Figure 1 fixture into three shards, boot one shard-mode ceciserve per
# part plus the ceciroute router, drive a traced query through the
# router with curl, and check the merged count (Figure 1 has exactly two
# embeddings), the stitched trace, and clean SIGTERM shutdowns.
#
# Run from the repository root: bash scripts/shard_smoke.sh
set -euo pipefail

ROUTER_PORT=${ROUTER_PORT:-18090}
SHARD_BASE=${SHARD_BASE:-18091}
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_ready() { # wait_ready <url>
  for _ in $(seq 1 50); do
    curl -sf "$1" >/dev/null && return 0
    sleep 0.2
  done
  echo "shard-smoke: $1 never became ready" >&2
  return 1
}

go build -o "$WORK/ceciserve" ./cmd/ceciserve
go build -o "$WORK/ceciroute" ./cmd/ceciroute

# 1. Partition the fixture into three pivot-owned shards.
"$WORK/ceciroute" -partition -data testdata/fig1_data.lg \
  -shards 3 -radius 2 -out "$WORK/shards"
test -f "$WORK/shards/manifest.json"

# 2. Boot the fleet: one shard-mode ceciserve per partition.
SHARD_FLAGS=()
for id in 0 1 2; do
  port=$((SHARD_BASE + id))
  "$WORK/ceciserve" -shard-manifest "$WORK/shards" -shard-id "$id" \
    -listen "127.0.0.1:$port" &
  PIDS+=($!)
  SHARD_FLAGS+=(-shard "http://127.0.0.1:$port")
done
for id in 0 1 2; do
  wait_ready "http://127.0.0.1:$((SHARD_BASE + id))/healthz?ready=1"
done

# 3. Boot the router; its readiness gate opens once every shard answers
# its health probe.
"$WORK/ceciroute" -manifest "$WORK/shards" "${SHARD_FLAGS[@]}" \
  -listen "127.0.0.1:$ROUTER_PORT" -health-interval 100ms &
ROUTER=$!
PIDS+=("$ROUTER")
wait_ready "http://127.0.0.1:$ROUTER_PORT/healthz?ready=1"

# 4. One traced query through the router: the merged count must equal
# the committed single-node expectation (two Figure 1 embeddings), with
# every shard answering.
TP='00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01'
curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/query" \
  -H 'Content-Type: application/json' \
  -H "traceparent: $TP" \
  -d "{\"query\": \"$(awk '{printf "%s\\n", $0}' testdata/fig1_query.lg)\"}" \
  | tee "$WORK/query.json"
echo
grep -q '"count":2' "$WORK/query.json"
grep -q '"shards_ok":3' "$WORK/query.json"
if grep -q '"partial":true' "$WORK/query.json"; then
  echo "shard-smoke: full fleet answered partial" >&2
  exit 1
fi

# 5. The routed query is in the flight recorder and its exported span
# tree stitches the router's spans with every shard's — which came with
# the leg replies: reading the tree is served by the router alone, and no
# shard has ever been asked for a trace. There is a leg per shard plus one
# per fill leg (a scatter span with round=fill: the window reached past
# shard 0's rows), each a scatter over a service-query; the tree's leg
# count is written to legs, and the document's service-query events are
# counted against it.
curl -sf "http://127.0.0.1:$ROUTER_PORT/queryz" | tee "$WORK/queryz.json" >/dev/null
grep -q '4bf92f3577b34da6a3ce929d0e0e4736' "$WORK/queryz.json"
curl -sf "http://127.0.0.1:$ROUTER_PORT/tracez/4bf92f3577b34da6a3ce929d0e0e4736" \
  -o "$WORK/tracez.json"
python3 - "$WORK/tracez.json" "$WORK/legs" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
evs = [e for e in doc['traceEvents'] if e['ph'] == 'X']
names = [e['name'] for e in evs]
fills = sum(1 for e in evs if e['name'] == 'scatter' and e['args'].get('round') == 'fill')
assert names.count('route-query') == 1, names
assert names.count('scatter') == 3 + fills, names
assert names.count('service-query') == 3 + fills, names
open(sys.argv[2], 'w').write(f"{3 + fills}\n")
by_id = {e['args']['span_id']: e for e in evs}
scatter_ids = {e['args']['span_id'] for e in evs if e['name'] == 'scatter'}
root_id = next(e['args']['span_id'] for e in evs if e['name'] == 'route-query')
for e in evs:
    if e['name'] == 'scatter':
        assert e['args']['parent_span_id'] == root_id, e
    if e['name'] == 'service-query':
        assert e['args']['parent_span_id'] in scatter_ids, e
print(f"shard-smoke: {len(evs)} spans, one tree spanning router + 3 shards ({fills} fill legs)")
PY
grep -c '"name": "service-query"' "$WORK/tracez.json" | grep -qx "$(cat "$WORK/legs")"
trace_reads() { # trace_reads <base url>: /tracez requests that server has answered
  curl -sf "$1/metrics.json" | python3 -c 'import json, sys; print(json.load(sys.stdin)["sources"][sys.argv[1]]["trace_reads"])' "$2"
}
test "$(trace_reads "http://127.0.0.1:$ROUTER_PORT" router)" = 1
for id in 0 1 2; do
  if [ "$(trace_reads "http://127.0.0.1:$((SHARD_BASE + id))" service)" != 0 ]; then
    echo "shard-smoke: shard $id was asked for a trace; spans ride the leg replies" >&2
    exit 1
  fi
done

# 6. SIGTERM everything; every process must exit 0 (graceful drain).
kill -TERM "$ROUTER"
wait "$ROUTER"
for pid in "${PIDS[@]}"; do
  if [ "$pid" != "$ROUTER" ]; then
    kill -TERM "$pid"
    wait "$pid"
  fi
done
PIDS=()
echo "shard-smoke: ok (count 2 across 3 shards, stitched trace with no shard asked for it, clean shutdowns)"
