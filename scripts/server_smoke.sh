#!/usr/bin/env bash
# End-to-end smoke of the query daemon: dump a snapshot, start
# `rigpm_cli serve` on a Unix socket, run client queries against it, diff
# every count against direct `rigpm_cli` evaluation of the same snapshot,
# check --limit, the flag usage errors and an out-of-range pattern label (a
# parse error, served and direct), and verify the daemon shuts down cleanly
# (both via a client shutdown request and via SIGTERM).
#
# usage: scripts/server_smoke.sh BUILD_DIR
set -eu

BUILD_DIR=${1:?usage: server_smoke.sh BUILD_DIR}
WORK_DIR=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" "${SERVER_PID_B:-}" 2>/dev/null || true; rm -rf "${WORK_DIR}"' EXIT

GRAPH=${WORK_DIR}/graph.txt
SNAP=${WORK_DIR}/engine.snap
SOCK=${WORK_DIR}/rigpm.sock

# The paper's running example graph (Fig. 2): known answers for the queries
# below.
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

QUERIES=(
  "(a:0)->(b:1), (a)->(c:2), (b)=>(c)"
  "(a:0)->(b:1)"
  "(a:0)=>(c:2)"
  "(b:1)=>(c:2)"
)

echo "== snapshot"
"${BUILD_DIR}/rigpm_cli" snapshot --graph "${GRAPH}" --out "${SNAP}"

echo "== start daemon"
"${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --socket "${SOCK}" \
  --workers 4 > "${WORK_DIR}/serve.log" 2>&1 &
SERVER_PID=$!

# Wait (bounded) for the daemon to answer pings.
for _ in $(seq 1 50); do
  if "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping \
       >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping

echo "== query daemon vs direct evaluation"
count_of() { grep -Eo '^[0-9]+ occurrence' <<<"$1" | grep -Eo '[0-9]+'; }
for q in "${QUERIES[@]}"; do
  served=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
             --pattern "${q}" --print 0)
  direct=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
             --pattern "${q}" --print 0)
  served_n=$(count_of "${served}")
  direct_n=$(count_of "${direct}")
  echo "query '${q}': served=${served_n} direct=${direct_n}"
  if [ "${served_n}" != "${direct_n}" ] || [ -z "${served_n}" ]; then
    echo "FAIL: count mismatch" >&2
    exit 1
  fi
done

echo "== concurrent clients"
pids=()
for i in 1 2 3 4; do
  "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
    --pattern "${QUERIES[0]}" --print 0 > "${WORK_DIR}/client_${i}.out" &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "${pid}"; done
for i in 1 2 3 4; do
  n=$(count_of "$(cat "${WORK_DIR}/client_${i}.out")")
  echo "concurrent client ${i}: ${n} occurrence(s)"
  [ "${n}" = "4" ] || { echo "FAIL: expected 4" >&2; exit 1; }
done

echo "== flags and limits"
# --limit caps what a query emits, 0 included, served and direct alike. A
# malformed numeric flag, and --threads without --batch, are usage errors
# (exit 2) that name the flag.
for limit in 0 2; do
  served_n=$(count_of "$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
               --pattern "${QUERIES[0]}" --limit "${limit}" --print 0)")
  direct_n=$(count_of "$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
               --pattern "${QUERIES[0]}" --limit "${limit}" --print 0)")
  echo "--limit ${limit}: served=${served_n} direct=${direct_n}"
  if [ "${served_n}" != "${limit}" ] || [ "${direct_n}" != "${limit}" ]; then
    echo "FAIL: expected ${limit} occurrence(s)" >&2
    exit 1
  fi
done
expect_usage_error() {  # FLAG-NAMED-IN-ERROR COMMAND...
  local named=$1 code=0 err
  shift
  err=$("$@" 2>&1 >/dev/null) || code=$?
  echo "$* -> exit ${code}"
  if [ "${code}" != "2" ] || ! grep -q -- "${named}" <<<"${err}"; then
    echo "FAIL: want exit 2 naming ${named}, got ${code}: ${err}" >&2
    exit 1
  fi
}
expect_usage_error --limit "${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
  --pattern "${QUERIES[0]}" --limit abc
expect_usage_error --batch "${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
  --pattern "${QUERIES[0]}" --threads 4
# A pattern number that does not fit 32 bits is a parse error, served and
# direct alike: the client exits 1 with the daemon's parse error and the
# daemon keeps serving; the CLI exits 1 with its own parse error.
BIG_LABEL="(a:0)->(b:99999999999999999999999)"
code=0
err=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
        --pattern "${BIG_LABEL}" 2>&1 >/dev/null) || code=$?
echo "served out-of-range label -> exit ${code}"
if [ "${code}" != "1" ] || ! grep -q "label .* does not fit" <<<"${err}"; then
  echo "FAIL: want exit 1 with the parse error, got ${code}: ${err}" >&2
  exit 1
fi
served_n=$(count_of "$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
             --pattern "${QUERIES[0]}" --print 0)")
direct_n=$(count_of "$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
             --pattern "${QUERIES[0]}" --print 0)")
echo "after the parse error: served=${served_n} direct=${direct_n}"
if [ -z "${served_n}" ] || [ "${served_n}" != "${direct_n}" ]; then
  echo "FAIL: daemon stopped serving after the parse error" >&2
  exit 1
fi
code=0
err=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
        --pattern "${BIG_LABEL}" 2>&1 >/dev/null) || code=$?
echo "direct out-of-range label -> exit ${code}"
if [ "${code}" != "1" ] || ! grep -q "cannot parse query" <<<"${err}"; then
  echo "FAIL: want exit 1 with \"cannot parse query\", got ${code}: ${err}" >&2
  exit 1
fi

echo "== stats"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats

echo "== clean shutdown via client request"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }
grep -q "shutdown:" "${WORK_DIR}/serve.log" || {
  echo "FAIL: no shutdown summary in daemon log" >&2; exit 1; }

echo "== two daemons, one snapshot (shared mmap)"
# The mmap deployment pattern: N daemons map the same snapshot read-only
# MAP_SHARED and share one physical copy of the graph. Both must answer
# every query with identical counts.
SOCK_B=${WORK_DIR}/rigpm_b.sock
"${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --socket "${SOCK}" \
  --snapshot-io mmap --workers 2 > "${WORK_DIR}/serve_a.log" 2>&1 &
SERVER_PID=$!
"${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --socket "${SOCK_B}" \
  --snapshot-io mmap --workers 2 > "${WORK_DIR}/serve_b.log" 2>&1 &
SERVER_PID_B=$!
for s in "${SOCK}" "${SOCK_B}"; do
  for _ in $(seq 1 50); do
    if "${BUILD_DIR}/rigpm_cli" client --socket "${s}" --ping \
         >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  "${BUILD_DIR}/rigpm_cli" client --socket "${s}" --ping
done
for q in "${QUERIES[@]}"; do
  a=$(count_of "$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
        --pattern "${q}" --print 0)")
  b=$(count_of "$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK_B}" \
        --pattern "${q}" --print 0)")
  echo "query '${q}': daemon A=${a} daemon B=${b}"
  if [ "${a}" != "${b}" ] || [ -z "${a}" ]; then
    echo "FAIL: daemons on one snapshot disagree" >&2
    exit 1
  fi
done
# Informational: per-daemon RSS — the second mapping of the same snapshot
# is physically shared, so B's graph pages cost ~nothing extra.
for pid in "${SERVER_PID}" "${SERVER_PID_B}"; do
  rss=$(grep -E '^VmRSS' "/proc/${pid}/status" 2>/dev/null || true)
  echo "daemon ${pid}: ${rss:-VmRSS unavailable}"
done
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK_B}" --shutdown
code=0
wait "${SERVER_PID_B}" || code=$?
SERVER_PID_B=
[ "${code}" = "0" ] || { echo "FAIL: daemon B exited ${code}" >&2; exit 1; }
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon A exited ${code}" >&2; exit 1; }

echo "== clean shutdown via SIGTERM"
"${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --socket "${SOCK}" \
  --workers 2 > "${WORK_DIR}/serve2.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  if "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping \
       >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
kill -TERM "${SERVER_PID}"
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code} on SIGTERM" >&2; exit 1; }

echo "server smoke: OK"
