#!/usr/bin/env bash
# Report the library functions that no program links: the out-of-line
# nadino:: functions of libnadino.a that only tests reach.
#
# Usage:
#   scripts/unreached.sh
#
# Method: build the library, every bench and example binary except the
# micro-benchmarks (micro_ops, simperf), and perfbench at -O0 with one
# section per function, and link with --gc-sections so each binary keeps only
# the functions it can reach. A function of libnadino.a that none of those
# binaries defines is unreached. Header-inline functions are weak symbols and
# are not counted. perfbench is built from its own CMakeLists.txt into a
# directory of its own; nothing under perfbench/ is modified.
#
# Blind spots: linking only proves a function is reachable, not that a
# program runs it. Code behind a runtime option that only tests set (a bool
# in an Options struct, a threshold in CostModel, a policy a program never
# installs) is linked and so never reported, and neither are header-inline
# functions or the overrides of a virtual that some program calls. For such
# code, grep for the writes of each option field outside tests/, e.g.
#   grep -rn '\.autoscale\s*=' src bench examples perfbench
# and treat a field that no program sets as a second mode only tests run.
#
# The build lives in build-unreached/ (gitignored) and takes about 2 minutes
# on 4 cores. This is a report, not a gate: it always exits 0 once the build
# succeeds. It prints one demangled name per line, then the count.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-unreached
FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
SKIPPED=(micro_ops simperf)

PROGRAMS=()
for src in bench/*.cc examples/*.cc; do
  name="$(basename "${src}" .cc)"
  [[ " ${SKIPPED[*]} " == *" ${name} "* ]] && continue
  PROGRAMS+=("${src%%/*}/${name}")
done

cmake -B "${BUILD_DIR}" -S . "${FLAGS[@]}" > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${PROGRAMS[@]##*/}" > /dev/null
cmake -B "${BUILD_DIR}/perfbench" -S perfbench "${FLAGS[@]}" > /dev/null
cmake --build "${BUILD_DIR}/perfbench" -j "$(nproc)" --target perfbench > /dev/null

# Mangled names of the library's global text symbols, and of every text
# symbol the programs keep.
nm --defined-only "${BUILD_DIR}/src/libnadino.a" 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "${BUILD_DIR}/library.syms"
for program in "${PROGRAMS[@]}" perfbench/perfbench; do
  nm --defined-only "${BUILD_DIR}/${program}" | awk '$2 ~ /^[Tt]$/ { print $3 }'
done | sort -u > "${BUILD_DIR}/linked.syms"

comm -23 "${BUILD_DIR}/library.syms" "${BUILD_DIR}/linked.syms" | c++filt |
  { grep '^nadino::' || true; } | sort -u > "${BUILD_DIR}/unreached.txt"
cat "${BUILD_DIR}/unreached.txt"
echo "unreached: $(wc -l < "${BUILD_DIR}/unreached.txt") out-of-line nadino:: functions no program links"
