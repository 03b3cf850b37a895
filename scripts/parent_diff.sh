#!/usr/bin/env bash
# Behaviour check for a change that must not move the model: diffs the
# stdout of every deterministic bench binary built from a git revision
# against the same binary built from the working tree.
#
# Usage:
#   scripts/parent_diff.sh <rev>     # e.g. HEAD (the parent of uncommitted
#                                    # work) or HEAD~1 (of the last commit)
#
# <rev> is exported with `git archive` into a temp dir, so no uncommitted
# edit leaks into it; both trees build Release (the working tree in build/,
# as scripts/check.sh does). Every bench runs nproc at a time in its own
# temp dir (benches write BENCH_*.json into their CWD), except the
# wall-clock ones: simperf and micro_ops. openloop_scale runs without
# --perf-compare/--workers, which time the host. Prints one line per bench
# and a diff for each that moved; exits 1 if any moved or failed, 2 on bad
# arguments. About 2.5 min on 4 cores.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
REV="$1"
if ! git rev-parse --verify --quiet "${REV}^{commit}" > /dev/null; then
  echo "parent_diff: ${REV} is not a commit" >&2
  exit 2
fi

ROOT_DIR="$(pwd)"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT
BASE_DIR="${WORK_DIR}/base"
mkdir "${BASE_DIR}" "${WORK_DIR}/runs"
git archive "${REV}" | tar -x -C "${BASE_DIR}"

# The deterministic benches of a source tree, one name a line.
bench_names() {
  for src in "$1"/bench/*.cc; do
    name="$(basename "${src}" .cc)"
    case "${name}" in
      simperf|micro_ops) ;;
      *) echo "${name}" ;;
    esac
  done
}

# Builds the bench targets of source tree $1 in Release into build dir $2.
build_benches() {
  cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release > /dev/null
  # shellcheck disable=SC2046
  cmake --build "$2" -j "$(nproc)" --target $(bench_names "$1") > /dev/null
}

echo "parent_diff: building ${REV} and the working tree (Release)..."
build_benches "${BASE_DIR}" "${BASE_DIR}/build"
build_benches "${ROOT_DIR}" "${ROOT_DIR}/build"

BENCHES="$(bench_names "${ROOT_DIR}")"
# Each job runs one bench of one tree: <tree label> <bench> <binary dir>.
{
  for name in ${BENCHES}; do
    if [[ -x "${BASE_DIR}/build/bench/${name}" ]]; then
      echo "base ${name} ${BASE_DIR}/build/bench"
    fi
    echo "work ${name} ${ROOT_DIR}/build/bench"
  done
} | xargs -P "$(nproc)" -L 1 sh -c '
    mkdir "$0/$1-$2" && cd "$0/$1-$2" && "$3/$2" > "$0/$1-$2.out" 2>&1 ||
      touch "$0/$1-$2.failed"' "${WORK_DIR}/runs"

STATUS=0
for name in ${BENCHES}; do
  base="${WORK_DIR}/runs/base-${name}.out"
  work="${WORK_DIR}/runs/work-${name}.out"
  if [[ -f "${WORK_DIR}/runs/base-${name}.failed" || -f "${WORK_DIR}/runs/work-${name}.failed" ]]; then
    echo "parent_diff: ${name} FAILED to run" >&2
    STATUS=1
  elif [[ ! -f "${base}" ]]; then
    echo "parent_diff: ${name} is new (not in ${REV})"
  elif diff -u --label "${REV}/${name}" --label "working/${name}" "${base}" "${work}"; then
    echo "parent_diff: ${name} unchanged"
  else
    echo "parent_diff: ${name} MOVED (diff above)" >&2
    STATUS=1
  fi
done
exit "${STATUS}"
