#!/usr/bin/env bash
# Configure, build, and run the full test suite, optionally followed by the
# bench regression gate. One command for CI and for a pre-commit sanity pass.
#
# Usage:
#   scripts/check.sh                   # Release build, all tests
#   scripts/check.sh address           # AddressSanitizer build (Debug)
#   scripts/check.sh undefined         # UBSan build (Debug)
#   scripts/check.sh thread            # ThreadSanitizer build (Debug)
#   scripts/check.sh --bench-diff      # ...then run the golden bench set
#                                      # (nproc benches at a time) and diff
#                                      # their BENCH_<name>.json
#                                      # artifacts against bench/goldens/;
#                                      # any drift fails the check
#   scripts/check.sh --update-goldens  # rerun the benches and rewrite
#                                      # bench/goldens/ (after an intentional
#                                      # model change; review the diff!)
#   scripts/check.sh --perf            # ...then run bench/simperf and gate
#                                      # wall-clock events/sec against
#                                      # bench/perf_baseline.json (fails on a
#                                      # >2x regression; see DESIGN.md §3c)
#
# The sanitizer can also be selected via the environment:
#   NADINO_SANITIZE=address scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${NADINO_SANITIZE:-}"
BENCH_DIFF=0
UPDATE_GOLDENS=0
PERF_GATE=0
for arg in "$@"; do
  case "${arg}" in
    address|undefined|thread) SANITIZER="${arg}" ;;
    --bench-diff) BENCH_DIFF=1 ;;
    --update-goldens)
      BENCH_DIFF=1
      UPDATE_GOLDENS=1
      ;;
    --perf) PERF_GATE=1 ;;
    *)
      echo "usage: $0 [address|undefined|thread] [--bench-diff|--update-goldens] [--perf]" >&2
      exit 2
      ;;
  esac
done

BUILD_DIR=build
CMAKE_ARGS=()
if [[ -n "${SANITIZER}" ]]; then
  case "${SANITIZER}" in
    address|undefined|thread) ;;
    *)
      echo "NADINO_SANITIZE must be 'address', 'undefined', or 'thread', got '${SANITIZER}'" >&2
      exit 2
      ;;
  esac
  BUILD_DIR="build-${SANITIZER}"
  CMAKE_ARGS+=("-DNADINO_SANITIZE=${SANITIZER}" "-DCMAKE_BUILD_TYPE=Debug")
fi

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
# Tests are independent processes: run nproc at a time, as tier-1 verify does,
# so the sanitizer legs finish in reasonable wall time without skipping any.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# --- Wall-clock perf gate ----------------------------------------------------
# Unlike the golden diffs below, wall time is machine-dependent, so the gate
# lives inside the simperf binary with a generous threshold: the run fails
# only when idle events/sec drops below baseline/threshold or the fig13 run's
# wall time exceeds baseline*threshold (a real hot-path regression, not
# scheduler jitter). BENCH_simperf.json is NOT golden-diffed.

# Runs one perf bench (the rest of the arguments) in a throwaway directory,
# since benches write BENCH_<name>.json into their CWD; a failing bench fails
# the check with its status.
run_perf_bench() {
  local label="$1"
  shift
  local run_dir status=0
  run_dir="$(mktemp -d)"
  echo "perf: running ${label}..."
  (cd "${run_dir}" && "$@") || status=$?
  rm -rf "${run_dir}"
  if [[ "${status}" -ne 0 ]]; then
    echo "perf: FAILED (see output above)" >&2
    exit "${status}"
  fi
}

if [[ "${PERF_GATE}" -eq 1 ]]; then
  ROOT_DIR="$(pwd)"
  BENCH_BIN="${ROOT_DIR}/${BUILD_DIR}/bench"
  run_perf_bench "bench/simperf against bench/perf_baseline.json" \
    "${BENCH_BIN}/simperf" --check "${ROOT_DIR}/bench/perf_baseline.json" --threshold 2.0
  # Sharded-admission + parallel-drain gates (DESIGN.md §3g/§3h): 16-node
  # bulk admit+drain must beat the single heap, and the multi-worker drain must
  # beat the serial drain at the 1M-user point (auto-skipped on 1-core
  # hosts). Same wall-clock caveats as simperf above.
  run_perf_bench "bench/openloop_scale --perf-compare" \
    "${BENCH_BIN}/openloop_scale" --perf-compare
  # Worker sweep (informational: no gate, but the determinism cross-check
  # inside the bench still fails the run on a divergent schedule).
  run_perf_bench "bench/openloop_scale --workers" "${BENCH_BIN}/openloop_scale" --workers
fi

if [[ "${BENCH_DIFF}" -eq 0 ]]; then
  exit 0
fi

# --- Bench regression gate ---------------------------------------------------
# The simulator is deterministic, so the metrics snapshots these benches emit
# are byte-stable across runs and machines. Goldens under bench/goldens/ pin
# them; unintended drift in calibrated costs, scheduling, or metric plumbing
# shows up here as a diff.
GOLDEN_DIR=bench/goldens
GOLDEN_BENCHES=(chain_offload fig06_isolation_cost fig09_comch fig11_offpath_onpath
                fig12_rdma_primitives fig13_ingress fig14_ingress_scaling fig15_multitenancy
                fig16_boutique node_scale openloop_scale tenant_churn)
GOLDEN_ARTIFACTS=(BENCH_chain_offload.json BENCH_fig06_dne_4096.json BENCH_fig09_comch_e6.json
                  BENCH_fig11_offpath_c8.json BENCH_fig12_twosided_4096.json
                  BENCH_fig13_nadino_c16.json BENCH_fig14_nadino_ramp.json BENCH_fig15_dwrr.json
                  BENCH_fig15_fcfs.json BENCH_fig16_dne_home.json BENCH_node_scale_16.json
                  BENCH_openloop_scale.json BENCH_tenant_churn.json)

RUN_DIR="$(mktemp -d)"
trap 'rm -rf "${RUN_DIR}"' EXIT
ROOT_DIR="$(pwd)"
# The golden benches are independent: run them nproc at a time, each in its
# own directory, then gather their artifacts. A failing bench fails the run.
# Each bench prints its own wall time when it finishes (not gated).
printf '%s\n' "${GOLDEN_BENCHES[@]}" |
  xargs -P "$(nproc)" -I{} sh -c '
    echo "bench-diff: running $2..."
    start=$(date +%s.%N)
    mkdir "$1/$2" && cd "$1/$2" && "$3/bench/$2" > "$2.out" ||
      { echo "bench-diff: $2 FAILED" >&2; exit 1; }
    awk -v bench="$2" -v start="${start}" -v end="$(date +%s.%N)" \
      "BEGIN { printf \"bench-diff: %s done in %.1f s\\n\", bench, end - start }"' \
    _ "${RUN_DIR}" {} "${ROOT_DIR}/${BUILD_DIR}"
cp "${RUN_DIR}"/*/BENCH_*.json "${RUN_DIR}/"

if [[ "${UPDATE_GOLDENS}" -eq 1 ]]; then
  mkdir -p "${GOLDEN_DIR}"
  for artifact in "${GOLDEN_ARTIFACTS[@]}"; do
    cp "${RUN_DIR}/${artifact}" "${GOLDEN_DIR}/${artifact}"
    echo "bench-diff: updated ${GOLDEN_DIR}/${artifact}"
  done
  exit 0
fi

STATUS=0
for artifact in "${GOLDEN_ARTIFACTS[@]}"; do
  if [[ ! -f "${GOLDEN_DIR}/${artifact}" ]]; then
    echo "bench-diff: MISSING golden ${GOLDEN_DIR}/${artifact}" >&2
    echo "bench-diff: run scripts/check.sh --update-goldens to create it" >&2
    STATUS=1
    continue
  fi
  if ! diff -u "${GOLDEN_DIR}/${artifact}" "${RUN_DIR}/${artifact}"; then
    echo "bench-diff: DRIFT in ${artifact} (see diff above)" >&2
    echo "bench-diff: intentional? rerun with --update-goldens and commit" >&2
    STATUS=1
  else
    echo "bench-diff: ${artifact} matches golden"
  fi
done
exit "${STATUS}"
