#!/usr/bin/env bash
# Smoke-runs every bench_* binary in its quick configuration and writes a
# BENCH_ci.json summary (one record per bench: status, exit code, wall
# seconds) so CI can track the perf trajectory per-PR. A bench that compares
# engines ends its log with its count gate's summary (bench_util/
# count_gate.h); the record copies it as "gate": comparisons made, how many
# had both sides at the limit, skips by status (OM, TO, NA) and mismatches.
# A mismatch makes the bench exit 1, so it fails this script too.
#
# usage: scripts/bench_smoke.sh BUILD_DIR [OUT_JSON]
#
# Quick configuration:
#  * RIGPM_SCALE=0.02      -- tiny generated datasets (seconds, not minutes)
#  * RIGPM_LIMIT=20000     -- low per-query match cap
#  * RIGPM_TIMEOUT_MS=2000 -- short per-query budget for the baselines
#  * per-binary wall-clock timeout (TIMEOUT_SECS, default 300)
#  * Google-Benchmark binaries (bench_micro_*) run with a minimal min_time
set -u

BUILD_DIR=${1:?usage: bench_smoke.sh BUILD_DIR [OUT_JSON]}
OUT_JSON=${2:-${BUILD_DIR}/BENCH_ci.json}
TIMEOUT_SECS=${TIMEOUT_SECS:-300}
LOG_DIR=${BUILD_DIR}/bench_logs

export RIGPM_SCALE=${RIGPM_SCALE:-0.02}
export RIGPM_LIMIT=${RIGPM_LIMIT:-20000}
export RIGPM_TIMEOUT_MS=${RIGPM_TIMEOUT_MS:-2000}

mkdir -p "${LOG_DIR}"

benches=()
for bin in "${BUILD_DIR}"/bench_*; do
  [ -x "${bin}" ] && [ -f "${bin}" ] && benches+=("${bin}")
done
if [ ${#benches[@]} -eq 0 ]; then
  echo "no bench binaries found in ${BUILD_DIR}" >&2
  exit 1
fi

overall=0
{
  printf '{\n'
  printf '  "scale": %s,\n' "${RIGPM_SCALE}"
  printf '  "limit": %s,\n' "${RIGPM_LIMIT}"
  # Host metadata: the parallel bench (bench_parallel_scale) scales with
  # the core count, so comparisons are only meaningful between runs on the
  # same number of cores (scripts/bench_compare.py enforces this).
  printf '  "cores": %s,\n' "$(nproc)"
  printf '  "host": {"os": "%s", "arch": "%s"},\n' \
    "$(uname -s)" "$(uname -m)"
  printf '  "benches": [\n'
  first=1
  for bin in "${benches[@]}"; do
    name=$(basename "${bin}")
    args=()
    case "${name}" in
      bench_micro_*) args=(--benchmark_min_time=0.01s) ;;
    esac
    start=$(date +%s.%N)
    timeout "${TIMEOUT_SECS}" "${bin}" "${args[@]+"${args[@]}"}" \
      >"${LOG_DIR}/${name}.log" 2>&1
    code=$?
    # Google Benchmark before 1.8 takes min_time only as a bare number of
    # seconds ("expected to be a double"); retry with that form.
    if [ ${code} -ne 0 ] && [ "${#args[@]}" -gt 0 ]; then
      start=$(date +%s.%N)
      timeout "${TIMEOUT_SECS}" "${bin}" --benchmark_min_time=0.01 \
        >"${LOG_DIR}/${name}.log" 2>&1
      code=$?
    fi
    end=$(date +%s.%N)
    secs=$(awk -v a="${start}" -v b="${end}" 'BEGIN { printf "%.2f", b - a }')
    if [ ${code} -eq 124 ]; then
      status=timeout
    elif [ ${code} -eq 0 ]; then
      status=ok
    else
      status=fail
    fi
    [ ${code} -eq 0 ] || overall=1
    echo "${name}: ${status} (${secs}s)" >&2
    # "count gate: comparisons=3, mismatches=0" -> "comparisons": 3, ...
    gate=$(sed -n 's/^count gate: \(comparisons=.*\)$/\1/p' \
      "${LOG_DIR}/${name}.log" | tail -n 1 |
      sed -E 's/([a-z_]+)=([0-9]+)/"\1": \2/g')
    [ ${first} -eq 0 ] && printf ',\n'
    first=0
    printf '    {"name": "%s", "status": "%s", "exit_code": %d, "seconds": %s' \
      "${name}" "${status}" "${code}" "${secs}"
    [ -n "${gate}" ] && printf ', "gate": {%s}' "${gate}"
    printf '}'
  done
  printf '\n  ]\n}\n'
} >"${OUT_JSON}"

echo "wrote ${OUT_JSON}" >&2
exit ${overall}
