#!/usr/bin/env bash
# End-to-end smoke of the delta-log refresh path: snapshot a graph, append
# two delta batches via the CLI, start a daemon armed with the log, send
# kRefresh after each batch, diff every served count against a cold rebuild
# of the merged graph (`rigpm_cli --load-snapshot ... --delta ...`), keep
# clients querying THROUGH the refresh (no round trip may fail), and
# require a clean shutdown. Then restart a daemon on the same snapshot and
# log: it must serve base + both records from its first query, before any
# refresh. The daemon deliberately runs FEWER workers (2) than concurrent
# clients (4): the event loop multiplexes, so the old "size the pool above
# the client count" caveat must stay dead. `delta append` must refuse an
# edge file line that is not exactly '[+|-] src dst' and leave the log as
# it was. Last, `delta replay --out` must
# write a snapshot that serves what snapshot + log serve, and must refuse
# a log with a flipped byte in an acknowledged record and a log bound to
# another base.
#
# usage: scripts/delta_smoke.sh BUILD_DIR
set -eu

BUILD_DIR=${1:?usage: delta_smoke.sh BUILD_DIR}
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

# Two update batches: batch 1 gives a0 a b-child and a c-child (new hybrid
# matches), batch 2 gives b3 a path to a c (more reachability matches).
cat > "${WORK_DIR}/batch1.txt" <<'EOF'
0 3
0 7
EOF
cat > "${WORK_DIR}/batch2.txt" <<'EOF'
6 9
EOF

QUERIES=(
  "(a:0)->(b:1), (a)->(c:2), (b)=>(c)"
  "(a:0)->(b:1)"
  "(a:0)=>(c:2)"
  "(b:1)=>(c:2)"
)

count_of() { grep -Eo '^[0-9]+ occurrence' <<<"$1" | grep -Eo '[0-9]+'; }

diff_served_vs_cold() {
  # Served counts must equal a cold rebuild of base + the records appended
  # so far ($1 = "with-delta" once the log exists).
  for q in "${QUERIES[@]}"; do
    served=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
               --pattern "${q}" --print 0)
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

# start_daemon LOG: a delta-armed daemon on the snapshot + log, up once it
# answers a ping.
start_daemon() {
  "${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --delta "${DELTA}" \
    --socket "${SOCK}" --workers 2 > "$1" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    if "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping \
         >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping
}

# stop_daemon LOG: remote shutdown, exit code 0, summary in the log.
stop_daemon() {
  "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
  code=0
  wait "${SERVER_PID}" || code=$?
  SERVER_PID=
  [ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }
  grep -q "shutdown:" "$1" || {
    echo "FAIL: no shutdown summary in daemon log" >&2; exit 1; }
}

echo "== start daemon (delta-armed)"
start_daemon "${WORK_DIR}/serve.log"

echo "== baseline counts (no delta yet)"
diff_served_vs_cold "no-delta"

echo "== append batch 1, refresh, re-diff"
"${BUILD_DIR}/rigpm_cli" delta append --base "${SNAP}" --delta "${DELTA}" \
  --edges "${WORK_DIR}/batch1.txt"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh
diff_served_vs_cold "with-delta"

echo "== append batch 2; refresh WHILE clients query"
"${BUILD_DIR}/rigpm_cli" delta append --base "${SNAP}" --delta "${DELTA}" \
  --edges "${WORK_DIR}/batch2.txt"
pids=()
for i in 1 2 3 4; do
  (
    for _ in $(seq 1 10); do
      "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
        --pattern "${QUERIES[0]}" --print 0 > /dev/null || exit 1
    done
  ) &
  pids+=($!)
done
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh
for pid in "${pids[@]}"; do
  wait "${pid}" || { echo "FAIL: client dropped during refresh" >&2; exit 1; }
done
echo "no client failed across the refresh"
diff_served_vs_cold "with-delta"

echo "== second refresh round is a no-op"
out=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh)
echo "${out}"
grep -q "refresh: 0 record(s)" <<<"${out}" || {
  echo "FAIL: expected a caught-up refresh" >&2; exit 1; }

echo "== stats"
stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
echo "${stats}"
grep -q "refreshes: 2" <<<"${stats}" || {
  echo "FAIL: expected 2 refreshes in stats" >&2; exit 1; }
grep -qE ", 0 error" <<<"$(grep requests: <<<"${stats}")" || {
  echo "FAIL: daemon counted protocol errors" >&2; exit 1; }

echo "== delta inspect"
"${BUILD_DIR}/rigpm_cli" delta inspect --delta "${DELTA}"

echo "== append refuses a malformed op line and journals nothing"
records_before=$("${BUILD_DIR}/rigpm_cli" delta inspect --delta "${DELTA}" |
                   grep '^records:')
for line in "0 3 7" "0 3x" "+0 3"; do
  printf '%s\n' "${line}" > "${WORK_DIR}/bad_batch.txt"
  code=0
  "${BUILD_DIR}/rigpm_cli" delta append --base "${SNAP}" --delta "${DELTA}" \
    --edges "${WORK_DIR}/bad_batch.txt" || code=$?
  [ "${code}" = "1" ] || {
    echo "FAIL: op line '${line}' exited ${code}, expected 1" >&2; exit 1; }
done
records_after=$("${BUILD_DIR}/rigpm_cli" delta inspect --delta "${DELTA}" |
                  grep '^records:')
echo "${records_after}"
[ "${records_after}" = "${records_before}" ] || {
  echo "FAIL: a refused append changed the log" >&2; exit 1; }

echo "== clean shutdown"
stop_daemon "${WORK_DIR}/serve.log"

echo "== restart on the same snapshot + log: base + 2 records, no refresh"
start_daemon "${WORK_DIR}/serve2.log"
diff_served_vs_cold "with-delta"
out=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh)
echo "${out}"
grep -q "refresh: 0 record(s)" <<<"${out}" || {
  echo "FAIL: a restarted daemon must already serve the whole log" >&2
  exit 1; }
stop_daemon "${WORK_DIR}/serve2.log"

echo "== delta replay --out: the compacted snapshot serves base + log"
SNAP2=${WORK_DIR}/compacted.snap
"${BUILD_DIR}/rigpm_cli" delta replay --base "${SNAP}" --delta "${DELTA}" \
  --out "${SNAP2}"
for q in "${QUERIES[@]}"; do
  compacted=$(count_of "$("${BUILD_DIR}/rigpm_cli" --load-snapshot \
                "${SNAP2}" --pattern "${q}" --print 0)")
  overlaid=$(count_of "$("${BUILD_DIR}/rigpm_cli" --load-snapshot \
               "${SNAP}" --delta "${DELTA}" --pattern "${q}" --print 0)")
  echo "query '${q}': compacted=${compacted} snapshot+delta=${overlaid}"
  if [ "${compacted}" != "${overlaid}" ] || [ -z "${compacted}" ]; then
    echo "FAIL: count mismatch" >&2
    exit 1
  fi
done

# expect_replay_refused BASE LOG WORD: `delta replay` exits 1 naming WORD.
expect_replay_refused() {
  code=0
  out=$("${BUILD_DIR}/rigpm_cli" delta replay --base "$1" --delta "$2" \
          2>&1) || code=$?
  echo "${out}"
  [ "${code}" = "1" ] || {
    echo "FAIL: delta replay exited ${code}, expected 1" >&2; exit 1; }
  grep -q "$3" <<<"${out}" || {
    echo "FAIL: delta replay did not say '$3'" >&2; exit 1; }
}

echo "== delta replay refuses a flipped byte in an acknowledged record"
# Record 1's edge list starts past the 32-byte file header and its own
# 32-byte record header; record 2 follows, so the damage is no torn tail.
cp "${DELTA}" "${WORK_DIR}/flipped.delta"
byte=$(od -An -tu1 -j 64 -N1 "${WORK_DIR}/flipped.delta" | tr -d ' ')
printf "$(printf '\\%03o' $(( byte ^ 0x5a )))" |
  dd of="${WORK_DIR}/flipped.delta" bs=1 seek=64 conv=notrunc status=none
expect_replay_refused "${SNAP}" "${WORK_DIR}/flipped.delta" "corrupt"

echo "== delta replay refuses a log bound to another base"
expect_replay_refused "${SNAP2}" "${DELTA}" "different base"

echo "delta smoke: OK"
