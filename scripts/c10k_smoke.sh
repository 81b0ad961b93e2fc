#!/usr/bin/env bash
# C10K smoke of the event-loop server core: park 1000+ idle connections on
# the daemon (rigpm_cli client --idle-hold), then drive hot PIPELINED
# clients through a kRefresh engine swap, and diff every served count
# against a cold rebuild of the merged graph. The idle flood must not cost
# a single failed round trip — with only 2 workers, a thread-per-connection
# core would deadlock instantly; the epoll core just holds the fds. The
# daemon runs with a 10-minute idle timeout, so its idle-connection scan
# runs beside the flood and the pipelined clients while reaping nothing.
#
# usage: scripts/c10k_smoke.sh BUILD_DIR [IDLE_CONNS]
set -eu

BUILD_DIR=${1:?usage: c10k_smoke.sh BUILD_DIR [IDLE_CONNS]}
IDLE_CONNS=${2:-1000}
WORK_DIR=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" "${HOLD_PID:-}" 2>/dev/null || true; \
     rm -rf "${WORK_DIR}"' EXIT

# The flood needs an fd per connection on BOTH sides; lift the soft
# RLIMIT_NOFILE toward the hard cap (best effort — many CI hard caps are
# 1048576, but fall back to a smaller flood if the cap is low).
hard=$(ulimit -Hn)
if [ "${hard}" != "unlimited" ] && [ "${hard}" -lt $((IDLE_CONNS + 512)) ]; then
  IDLE_CONNS=$((hard - 512))
  echo "note: RLIMIT_NOFILE hard cap ${hard}; shrinking flood to ${IDLE_CONNS}"
fi
ulimit -Sn "$((IDLE_CONNS + 512))" 2>/dev/null ||
  ulimit -Sn "${hard}" 2>/dev/null || true
echo "fd limit: soft $(ulimit -Sn), hard ${hard}; flood ${IDLE_CONNS}"

GRAPH=${WORK_DIR}/graph.txt
SNAP=${WORK_DIR}/base.snap
DELTA=${WORK_DIR}/graph.delta
SOCK=${WORK_DIR}/rigpm.sock

# The paper's running example graph (Fig. 2).
cat > "${GRAPH}" <<'EOF'
t 10 13
v 0 0
v 1 0
v 2 0
v 3 1
v 4 1
v 5 1
v 6 1
v 7 2
v 8 2
v 9 2
e 0 6
e 1 3
e 2 5
e 1 7
e 1 8
e 2 7
e 2 9
e 3 7
e 3 8
e 4 7
e 4 9
e 5 3
e 5 9
EOF

# One update batch so the kRefresh mid-flood actually swaps an engine.
cat > "${WORK_DIR}/batch1.txt" <<'EOF'
0 3
0 7
EOF

QUERIES=(
  "(a:0)->(b:1), (a)->(c:2), (b)=>(c)"
  "(a:0)->(b:1)"
  "(a:0)=>(c:2)"
  "(b:1)=>(c:2)"
)

count_of() { grep -Eo '^[0-9]+ occurrence' <<<"$1" | grep -Eo '[0-9]+'; }

diff_served_vs_cold() {
  # Served counts (pipelined AND sequential) must equal a cold rebuild of
  # base + whatever the log holds ($1 = "with-delta" once it exists).
  for q in "${QUERIES[@]}"; do
    served=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
               --pattern "${q}" --print 0 --pipeline 8 | tail -n 1)
    if [ "$1" = "with-delta" ]; then
      direct=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
                 --delta "${DELTA}" --pattern "${q}" --print 0)
    else
      direct=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
                 --pattern "${q}" --print 0)
    fi
    served_n=$(count_of "${served}")
    direct_n=$(count_of "${direct}")
    echo "query '${q}': served=${served_n} cold=${direct_n}"
    if [ "${served_n}" != "${direct_n}" ] || [ -z "${served_n}" ]; then
      echo "FAIL: count mismatch" >&2
      exit 1
    fi
  done
}

echo "== snapshot"
"${BUILD_DIR}/rigpm_cli" snapshot --graph "${GRAPH}" --out "${SNAP}"

echo "== start daemon (2 workers, delta-armed, idle scan on)"
"${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --delta "${DELTA}" \
  --socket "${SOCK}" --workers 2 --idle-timeout-ms 600000 \
  > "${WORK_DIR}/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  if "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping \
       >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping

echo "== park ${IDLE_CONNS} idle connection(s)"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
  --idle-hold "${IDLE_CONNS}" --hold-secs 600 \
  > "${WORK_DIR}/hold.log" 2>&1 &
HOLD_PID=$!
for _ in $(seq 1 100); do
  if grep -q "holding" "${WORK_DIR}/hold.log" 2>/dev/null; then break; fi
  kill -0 "${HOLD_PID}" 2>/dev/null || {
    echo "FAIL: idle holder died:" >&2; cat "${WORK_DIR}/hold.log" >&2
    exit 1; }
  sleep 0.1
done
grep -q "holding ${IDLE_CONNS} connection(s)" "${WORK_DIR}/hold.log" || {
  echo "FAIL: idle holder never reported" >&2
  cat "${WORK_DIR}/hold.log" >&2; exit 1; }

stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
echo "${stats}" | grep connections:
active=$(grep -Eo '[0-9]+ active' <<<"${stats}" | grep -Eo '[0-9]+')
[ "${active}" -ge "${IDLE_CONNS}" ] || {
  echo "FAIL: expected >= ${IDLE_CONNS} active connections, saw ${active}" >&2
  exit 1; }

echo "== hot queries through the flood (baseline counts)"
diff_served_vs_cold "no-delta"

echo "== refresh WHILE the flood is parked and pipelined clients query"
"${BUILD_DIR}/rigpm_cli" delta append --base "${SNAP}" --delta "${DELTA}" \
  --edges "${WORK_DIR}/batch1.txt"
pids=()
for i in 1 2 3 4; do
  (
    for _ in $(seq 1 5); do
      "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
        --pattern "${QUERIES[0]}" --print 0 --pipeline 16 > /dev/null ||
        exit 1
    done
  ) &
  pids+=($!)
done
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh
for pid in "${pids[@]}"; do
  wait "${pid}" || {
    echo "FAIL: pipelined client dropped during refresh" >&2; exit 1; }
done
echo "no pipelined client failed across the refresh"
diff_served_vs_cold "with-delta"

echo "== stats after the storm"
stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
echo "${stats}"
grep -qE ", 0 error" <<<"$(grep requests: <<<"${stats}")" || {
  echo "FAIL: daemon counted protocol errors" >&2; exit 1; }
grep -q "accept-to-first-byte" <<<"${stats}" || {
  echo "FAIL: no accept latency in stats" >&2; exit 1; }

echo "== release the flood; daemon must reap the EOFs"
kill "${HOLD_PID}" 2>/dev/null || true
wait "${HOLD_PID}" 2>/dev/null || true
HOLD_PID=
for _ in $(seq 1 100); do
  stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
  active=$(grep -Eo '[0-9]+ active' <<<"${stats}" | grep -Eo '[0-9]+')
  if [ "${active}" -lt 10 ]; then break; fi
  sleep 0.1
done
echo "active connections after release: ${active}"
[ "${active}" -lt 10 ] || {
  echo "FAIL: daemon failed to reap the released flood" >&2; exit 1; }

echo "== clean shutdown"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }
grep -q "shutdown:" "${WORK_DIR}/serve.log" || {
  echo "FAIL: no shutdown summary in daemon log" >&2; exit 1; }

echo "c10k smoke: OK"
