#!/usr/bin/env bash
# End-to-end smoke of the multi-tenant catalog: ONE daemon serving three
# graphs (two of them delta-armed) behind `--graph NAME=SNAP[:DELTA]` with
# an LRU cap BELOW the tenant count (--max-engines 2), so the concurrent
# scoped clients below churn evictions the whole time. Checks:
#   - a liveness ping and the graph listing (3 registered, alpha default),
#   - per-tenant counts diffed against cold rigpm_cli rebuilds of each
#     snapshot (+delta), for scoped AND unscoped clients,
#   - a tenant whose delta log existed before the daemon started (the lazy
#     open must replay it),
#   - per-tenant kRefresh applied to one tenant WHILE scoped clients flood
#     all three (no round trip may fail; other tenants' counts untouched),
#   - refresh rejections: caught-up no-op vs no-delta-configured,
#   - unknown graph ids answered with an error, not a dropped connection,
#   - catalog counters in --stats (3 registered, evictions > 0 under the
#     cap) and a clean shutdown.
#
# usage: scripts/multitenant_smoke.sh BUILD_DIR
set -eu

BUILD_DIR=${1:?usage: multitenant_smoke.sh BUILD_DIR}
WORK_DIR=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "${WORK_DIR}"' EXIT

SOCK=${WORK_DIR}/rigpm.sock
CLI=${BUILD_DIR}/rigpm_cli

# Tenant alpha: the paper's running example graph (Fig. 2).
cat > "${WORK_DIR}/alpha.txt" <<'EOF'
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

# Tenant beta: alpha plus two extra a0 edges — different counts, so a
# request routed to the wrong tenant cannot return the right number.
{ sed 's/^t 10 13$/t 10 15/' "${WORK_DIR}/alpha.txt"
  echo "e 0 3"; echo "e 0 7"; } > "${WORK_DIR}/beta.txt"

# Tenant gamma: alpha plus a b3->c2 edge (more reachability matches).
{ sed 's/^t 10 13$/t 10 14/' "${WORK_DIR}/alpha.txt"
  echo "e 6 9"; } > "${WORK_DIR}/gamma.txt"

QUERIES=(
  "(a:0)->(b:1), (a)->(c:2), (b)=>(c)"
  "(a:0)->(b:1)"
  "(b:1)=>(c:2)"
)

count_of() { grep -Eo '^[0-9]+ occurrence' <<<"$1" | grep -Eo '[0-9]+'; }

# diff_tenant NAME SNAP [DELTA]: every query's count through the scoped
# session must equal a cold rigpm_cli rebuild of that tenant's source.
diff_tenant() {
  local name=$1 snap=$2 delta=${3:-}
  for q in "${QUERIES[@]}"; do
    served=$("${CLI}" client --socket "${SOCK}" --graph "${name}" \
               --pattern "${q}" --print 0)
    if [ -n "${delta}" ]; then
      direct=$("${CLI}" --load-snapshot "${snap}" --delta "${delta}" \
                 --pattern "${q}" --print 0)
    else
      direct=$("${CLI}" --load-snapshot "${snap}" --pattern "${q}" \
                 --print 0)
    fi
    served_n=$(count_of "${served}")
    direct_n=$(count_of "${direct}")
    echo "tenant ${name} query '${q}': served=${served_n} cold=${direct_n}"
    if [ "${served_n}" != "${direct_n}" ] || [ -z "${served_n}" ]; then
      echo "FAIL: count mismatch for tenant ${name}" >&2
      exit 1
    fi
  done
}

echo "== snapshot the three tenants"
for t in alpha beta gamma; do
  "${CLI}" snapshot --graph "${WORK_DIR}/${t}.txt" \
    --out "${WORK_DIR}/${t}.snap"
done

echo "== pre-existing delta for beta (the lazy open must replay it)"
cat > "${WORK_DIR}/beta_batch.txt" <<'EOF'
6 9
EOF
"${CLI}" delta append --base "${WORK_DIR}/beta.snap" \
  --delta "${WORK_DIR}/beta.delta" --edges "${WORK_DIR}/beta_batch.txt"

echo "== start ONE daemon with three graphs, cap 2"
"${CLI}" serve \
  --graph "alpha=${WORK_DIR}/alpha.snap:${WORK_DIR}/alpha.delta" \
  --graph "beta=${WORK_DIR}/beta.snap:${WORK_DIR}/beta.delta" \
  --graph "gamma=${WORK_DIR}/gamma.snap" \
  --max-engines 2 --socket "${SOCK}" --workers 2 \
  > "${WORK_DIR}/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  if "${CLI}" client --socket "${SOCK}" --ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

echo "== ping"
pong=$("${CLI}" client --socket "${SOCK}" --ping)
echo "${pong}"
[ "${pong}" = "pong" ] || {
  echo "FAIL: daemon did not answer the ping" >&2; exit 1; }

echo "== list graphs"
graphs=$("${CLI}" client --socket "${SOCK}" --list-graphs)
echo "${graphs}"
grep -q "3 registered" <<<"${graphs}" || {
  echo "FAIL: expected 3 registered graphs" >&2; exit 1; }
grep -q "default: alpha" <<<"${graphs}" || {
  echo "FAIL: expected alpha as the default graph" >&2; exit 1; }

echo "== per-tenant counts vs cold rebuilds (scoped sessions)"
diff_tenant alpha "${WORK_DIR}/alpha.snap"
diff_tenant beta "${WORK_DIR}/beta.snap" "${WORK_DIR}/beta.delta"
diff_tenant gamma "${WORK_DIR}/gamma.snap"

echo "== unscoped client serves the default tenant (alpha)"
for q in "${QUERIES[@]}"; do
  unscoped=$("${CLI}" client --socket "${SOCK}" --pattern "${q}" --print 0)
  direct=$("${CLI}" --load-snapshot "${WORK_DIR}/alpha.snap" \
             --pattern "${q}" --print 0)
  [ "$(count_of "${unscoped}")" = "$(count_of "${direct}")" ] || {
    echo "FAIL: unscoped client diverged from the default tenant" >&2
    exit 1
  }
done

echo "== unknown graph id is an error, not a dead socket"
if out=$("${CLI}" client --socket "${SOCK}" --graph nope \
           --pattern "${QUERIES[0]}" --print 0 2>&1); then
  echo "FAIL: query for an unknown graph id succeeded" >&2; exit 1
fi
grep -q "unknown graph id" <<<"${out}" || {
  echo "FAIL: expected an unknown-graph-id error, got: ${out}" >&2
  exit 1
}

echo "== refresh alpha WHILE scoped clients flood all three tenants"
cat > "${WORK_DIR}/alpha_batch.txt" <<'EOF'
0 3
0 7
EOF
"${CLI}" delta append --base "${WORK_DIR}/alpha.snap" \
  --delta "${WORK_DIR}/alpha.delta" --edges "${WORK_DIR}/alpha_batch.txt"
pids=()
for t in alpha beta gamma; do
  (
    for _ in $(seq 1 10); do
      "${CLI}" client --socket "${SOCK}" --graph "${t}" \
        --pattern "${QUERIES[0]}" --print 0 > /dev/null || exit 1
    done
  ) &
  pids+=($!)
done
refresh_out=$("${CLI}" client --socket "${SOCK}" --graph alpha --refresh)
echo "${refresh_out}"
grep -q "refresh: 1 record(s)" <<<"${refresh_out}" || {
  echo "FAIL: expected 1 applied record for alpha" >&2; exit 1; }
for pid in "${pids[@]}"; do
  wait "${pid}" || {
    echo "FAIL: scoped client dropped during the refresh" >&2; exit 1; }
done
echo "no scoped client failed across the per-tenant refresh"

echo "== alpha serves base+delta; beta and gamma are untouched"
diff_tenant alpha "${WORK_DIR}/alpha.snap" "${WORK_DIR}/alpha.delta"
diff_tenant beta "${WORK_DIR}/beta.snap" "${WORK_DIR}/beta.delta"
diff_tenant gamma "${WORK_DIR}/gamma.snap"

echo "== refresh of a caught-up tenant is a no-op"
beta_refresh=$("${CLI}" client --socket "${SOCK}" --graph beta --refresh)
echo "${beta_refresh}"
grep -q "refresh: 0 record(s)" <<<"${beta_refresh}" || {
  echo "FAIL: expected a caught-up refresh for beta" >&2; exit 1; }

echo "== refresh of a delta-less tenant is rejected"
if out=$("${CLI}" client --socket "${SOCK}" --graph gamma --refresh 2>&1)
then
  echo "FAIL: refresh of gamma (no delta) succeeded" >&2; exit 1
fi
grep -q "delta" <<<"${out}" || {
  echo "FAIL: expected a no-delta-configured error, got: ${out}" >&2
  exit 1
}

echo "== catalog counters"
stats=$("${CLI}" client --socket "${SOCK}" --stats)
echo "${stats}"
grep -q "catalog: 3 graph(s)" <<<"${stats}" || {
  echo "FAIL: expected 3 graphs in the catalog stats" >&2; exit 1; }
# The catalog line's own count: the result-cache and tenant lines print
# eviction counts too.
evictions=$(grep '^catalog:' <<<"${stats}" | grep -Eo '[0-9]+ eviction' |
              grep -Eo '[0-9]+')
if [ -z "${evictions}" ] || [ "${evictions}" -lt 1 ]; then
  echo "FAIL: expected LRU evictions under --max-engines 2" >&2; exit 1
fi
echo "evictions under the cap: ${evictions}"

echo "== clean shutdown"
"${CLI}" client --socket "${SOCK}" --shutdown
code=0
wait "${SERVER_PID}" || code=$?
SERVER_PID=
[ "${code}" = "0" ] || { echo "FAIL: daemon exited ${code}" >&2; exit 1; }

echo "multitenant smoke: OK"
