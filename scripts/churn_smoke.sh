#!/usr/bin/env bash
# Maintenance smoke: a daemon with a maintenance thread under continuous
# add/delete churn from the CLI appender, with live clients querying the
# whole time. Asserts that (1) the background thread picks the records up
# and auto-compaction fires — the lineage head re-points the base and the
# active log shrinks back to a fresh generation, (2) served counts equal a
# cold rebuild of the CURRENT lineage's base+delta after the churn stops,
# and (3) not one client round trip fails across all the refreshes and
# compactions.
#
# usage: scripts/churn_smoke.sh BUILD_DIR
set -eu

BUILD_DIR=${1:?usage: churn_smoke.sh BUILD_DIR}
WORK_DIR=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "${WORK_DIR}"' EXIT

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

# Churn batches: grow then shrink the same region, with genuine deletes of
# base edges in the mix, so the log carries both op kinds every cycle.
cat > "${WORK_DIR}/grow.txt" <<'EOF'
+ 0 3
+ 0 7
+ 6 9
- 1 3
EOF
cat > "${WORK_DIR}/shrink.txt" <<'EOF'
- 0 3
- 0 7
- 6 9
+ 1 3
EOF

QUERIES=(
  "(a:0)->(b:1), (a)->(c:2), (b)=>(c)"
  "(a:0)->(b:1)"
  "(a:0)=>(c:2)"
)

count_of() { grep -Eo '^[0-9]+ occurrence' <<<"$1" | grep -Eo '[0-9]+'; }

echo "== snapshot"
"${BUILD_DIR}/rigpm_cli" snapshot --graph "${GRAPH}" --out "${SNAP}"

echo "== start daemon (maintenance thread: 50ms poll, compact at 5%)"
"${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --delta "${DELTA}" \
  --socket "${SOCK}" --workers 2 \
  --maintenance-interval-ms 50 --auto-compact-ratio 0.05 \
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

echo "== live clients querying through the churn"
pids=()
for i in 1 2 3; do
  (
    while [ ! -f "${WORK_DIR}/stop" ]; do
      "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
        --pattern "${QUERIES[$((i % 3))]}" --print 0 > /dev/null || exit 1
    done
  ) &
  pids+=($!)
done

echo "== churn: alternating add/delete batches via the CLI appender"
# Each append follows the lineage head, so batches keep landing in the
# right log as the daemon compacts underneath the appender.
compactions=0
for round in $(seq 1 40); do
  if [ $((round % 2)) -eq 1 ]; then
    batch=${WORK_DIR}/grow.txt
  else
    batch=${WORK_DIR}/shrink.txt
  fi
  "${BUILD_DIR}/rigpm_cli" delta append --base "${SNAP}" \
    --delta "${DELTA}" --edges "${batch}" > /dev/null
  stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
  compactions=$(grep -Eo '[0-9]+ compaction' <<<"${stats}" |
    grep -Eo '[0-9]+')
  if [ "${compactions:-0}" -ge 2 ] && [ "${round}" -ge 10 ]; then
    break
  fi
  sleep 0.1
done
echo "churn stopped after ${round} round(s), ${compactions} compaction(s)"
if [ "${compactions:-0}" -lt 1 ]; then
  echo "FAIL: auto-compaction never fired" >&2
  exit 1
fi

echo "== stop churn; no client round trip may have failed"
touch "${WORK_DIR}/stop"
for pid in "${pids[@]}"; do
  wait "${pid}" || {
    echo "FAIL: a client round trip failed during churn" >&2; exit 1; }
done
echo "all clients survived every refresh and compaction"

echo "== quiesce: wait for the maintenance thread to drain and settle"
# With appends stopped, the thread refreshes the tail and compacts at most
# once more; after that the log is empty and the counters stop moving.
# Only then is the lineage stable enough to inspect from outside.
prev=""
for _ in $(seq 1 100); do
  stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
  now=$(grep maintenance: <<<"${stats}")
  if [ -n "${prev}" ] && [ "${now}" = "${prev}" ]; then
    break
  fi
  prev=${now}
  sleep 0.2
done
echo "${now}"

echo "== lineage re-pointed and the active log shrank"
HEAD=${SNAP}.head
[ -f "${HEAD}" ] || { echo "FAIL: no lineage head published" >&2; exit 1; }
cat "${HEAD}"
CUR_SNAP=$(grep '^snapshot ' "${HEAD}" | cut -d' ' -f2-)
CUR_DELTA=$(grep '^delta ' "${HEAD}" | cut -d' ' -f2-)
[ "${CUR_SNAP}" != "${SNAP}" ] || {
  echo "FAIL: head still points at generation 0" >&2; exit 1; }
[ -f "${CUR_SNAP}" ] || { echo "FAIL: ${CUR_SNAP} missing" >&2; exit 1; }
if [ -f "${DELTA}" ]; then
  echo "FAIL: generation-0 delta log survived compaction" >&2
  exit 1
fi
old_size=$(stat -c '%s' "${SNAP}")
new_log=$(stat -c '%s' "${CUR_DELTA}")
echo "active log: ${new_log} byte(s) (base snapshot ${old_size})"
if [ "${new_log}" -ge "${old_size}" ]; then
  echo "FAIL: compaction left the log as large as the base" >&2
  exit 1
fi

echo "== served counts equal a cold rebuild of the current lineage"
# One explicit refresh pins the daemon to the log tail before the diff
# (the maintenance tick may not have fired since the last append).
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh > /dev/null
for q in "${QUERIES[@]}"; do
  served=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
             --pattern "${q}" --print 0)
  direct=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${CUR_SNAP}" \
             --delta "${CUR_DELTA}" --pattern "${q}" --print 0)
  served_n=$(count_of "${served}")
  direct_n=$(count_of "${direct}")
  echo "query '${q}': served=${served_n} cold=${direct_n}"
  if [ "${served_n}" != "${direct_n}" ] || [ -z "${served_n}" ]; then
    echo "FAIL: count mismatch" >&2
    exit 1
  fi
done

echo "== maintenance counters over the wire"
stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
grep maintenance: <<<"${stats}"
grep -qE 'maintenance: [1-9][0-9]* auto-refresh' <<<"${stats}" || {
  echo "FAIL: no auto-refreshes counted" >&2; exit 1; }
grep -qE '[1-9][0-9]* byte\(s\) reclaimed' <<<"${stats}" || {
  echo "FAIL: no bytes reclaimed counted" >&2; exit 1; }
grep -qE '[1-9][0-9]* delete\(s\) applied' <<<"${stats}" || {
  echo "FAIL: no delete ops counted" >&2; exit 1; }
grep -qE ', 0 error' <<<"$(grep requests: <<<"${stats}")" || {
  echo "FAIL: daemon counted protocol errors" >&2; exit 1; }

echo "== delta inspect shows the op histogram"
"${BUILD_DIR}/rigpm_cli" delta inspect --delta "${CUR_DELTA}"

echo "== clean shutdown"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }

echo "churn smoke: OK"
