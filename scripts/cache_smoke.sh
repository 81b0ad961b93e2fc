#!/usr/bin/env bash
# End-to-end smoke of the generation-keyed result cache: start a delta-armed
# daemon, replay the same queries (--repeat) so the second and later rounds
# hit, verify hits via --stats, check that a permuted declaration of the
# same pattern is its own cache miss and gets the tuples a direct run of its
# own text prints, then append a delta batch and kRefresh — the new
# generation must start with an EMPTY cache (counters reset, counts equal a
# cold rebuild of base+delta, not the cached answer). Finally
# --cache-bytes 0 must serve identically with the cache off.
#
# usage: scripts/cache_smoke.sh BUILD_DIR
set -eu

BUILD_DIR=${1:?usage: cache_smoke.sh BUILD_DIR}
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

# Gives a0 a b-child and a c-child: the paper query's count changes, so a
# stale cache hit after the refresh would be caught red-handed.
cat > "${WORK_DIR}/batch1.txt" <<'EOF'
0 3
0 7
EOF

QUERY="(a:0)->(b:1), (a)->(c:2), (b)=>(c)"
# The same pattern with the clauses declared in a different order (node
# numbering permuted by first appearance), so its tuples list the nodes in
# another column order: the cache keys requests by their bytes, and the
# twin must not receive QUERY's tuples.
QUERY_PERMUTED="(b:1)=>(c:2), (x:0)->(c), (x)->(b)"

count_of() { grep -Eo '^[0-9]+ occurrence' <<<"$1" | grep -Eo '[0-9]+'; }
tuples_of() { grep -E '^\(' <<<"$1"; }
# Pulls one counter out of the "result cache: ..." stats line, e.g.
# cache_stat "$stats" 'miss\(es\)'.
cache_stat() {
  grep '^result cache:' <<<"$1" | grep -Eo "[0-9]+ ${2}" | grep -Eo '[0-9]+'
}

serve() {
  "${BUILD_DIR}/rigpm_cli" serve --snapshot "${SNAP}" --delta "${DELTA}" \
    --socket "${SOCK}" --workers 2 "$@" > "${WORK_DIR}/serve.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    if "${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --ping \
         >/dev/null 2>&1; then
      return
    fi
    sleep 0.1
  done
  echo "FAIL: daemon never answered ping" >&2
  exit 1
}

echo "== snapshot + start daemon"
"${BUILD_DIR}/rigpm_cli" snapshot --graph "${GRAPH}" --out "${SNAP}"
serve

echo "== warm the cache: 5 rounds of the same query on one connection"
# Tuples are asked for as the permuted twin asks for them below, so the
# two requests differ only in their pattern text.
out=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
        --pattern "${QUERY}" --repeat 5 --tuples 10 --print 0)
echo "${out}"
cold_n=$(count_of "${out}")
[ "${cold_n}" = "4" ] || { echo "FAIL: expected 4 occurrences" >&2; exit 1; }
grep -q "repeat: 5 round(s) completed" <<<"${out}" || {
  echo "FAIL: --repeat summary missing" >&2; exit 1; }

echo "== the permuted declaration gets its own tuples"
perm=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
         --pattern "${QUERY_PERMUTED}" --tuples 10 --print 10)
echo "${perm}"
[ "$(count_of "${perm}")" = "4" ] || {
  echo "FAIL: permuted pattern served a different count" >&2; exit 1; }
perm_direct=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
                --pattern "${QUERY_PERMUTED}" --print 10)
[ -n "$(tuples_of "${perm}")" ] || {
  echo "FAIL: permuted pattern echoed no tuples" >&2; exit 1; }
[ "$(tuples_of "${perm}")" = "$(tuples_of "${perm_direct}")" ] || {
  echo "FAIL: permuted pattern's tuples differ from a direct run" >&2
  exit 1; }

echo "== stats: 2 misses (QUERY + permuted twin), >= 4 hits (4 repeats)"
stats=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
grep "result cache" <<<"${stats}"
misses=$(cache_stat "${stats}" 'miss\(es\)')
hits=$(cache_stat "${stats}" 'hit\(s\)')
[ "${misses}" = "2" ] || { echo "FAIL: expected 2 misses" >&2; exit 1; }
[ "${hits}" -ge 4 ] || { echo "FAIL: expected >= 4 hits" >&2; exit 1; }
grep -qE 'flushes: [1-9][0-9]*' <<<"${stats}" || {
  echo "FAIL: no write flushes counted" >&2; exit 1; }

echo "== append a results-changing batch, refresh, re-query"
"${BUILD_DIR}/rigpm_cli" delta append --base "${SNAP}" --delta "${DELTA}" \
  --edges "${WORK_DIR}/batch1.txt"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh
after=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
          --pattern "${QUERY}" --repeat 3 --print 0)
after_n=$(count_of "${after}")
direct=$("${BUILD_DIR}/rigpm_cli" --load-snapshot "${SNAP}" \
           --delta "${DELTA}" --pattern "${QUERY}" --print 0)
direct_n=$(count_of "${direct}")
echo "served=${after_n} cold-rebuild=${direct_n} (pre-refresh was ${cold_n})"
[ "${after_n}" = "${direct_n}" ] || {
  echo "FAIL: post-refresh count does not match a cold rebuild" >&2; exit 1; }
[ "${after_n}" != "${cold_n}" ] || {
  echo "FAIL: batch was supposed to change the answer" >&2; exit 1; }

echo "== stats after refresh: generation swap reset the tenant counters"
stats2=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
grep "result cache" <<<"${stats2}"
misses2=$(cache_stat "${stats2}" 'miss\(es\)')
[ "${misses2}" = "1" ] || {
  echo "FAIL: fresh generation should show exactly 1 miss" >&2; exit 1; }
grep -qE ", 0 error" <<<"$(grep requests: <<<"${stats2}")" || {
  echo "FAIL: daemon counted protocol errors" >&2; exit 1; }

echo "== clean shutdown"
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }

echo "== --cache-bytes 0 serves identically with the cache disabled"
serve --cache-bytes 0
# The fresh daemon starts from the base snapshot; replay the log first so
# it serves the same graph the cached run ended on.
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --refresh
out0=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" \
         --pattern "${QUERY}" --repeat 3 --print 0)
[ "$(count_of "${out0}")" = "${direct_n}" ] || {
  echo "FAIL: cache-off count differs" >&2; exit 1; }
stats0=$("${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --stats)
grep -q "result cache: 0 hit(s), 0 miss(es)" <<<"${stats0}" || {
  echo "FAIL: disabled cache still counted traffic" >&2; exit 1; }
"${BUILD_DIR}/rigpm_cli" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }

echo "cache smoke: OK"
