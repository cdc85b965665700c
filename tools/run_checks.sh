#!/usr/bin/env bash
# Local pre-submit checks for ADA-HEALTH.
#
# Usage:
#   tools/run_checks.sh            # lint + warnings-as-errors build + tests
#   tools/run_checks.sh --quick    # lint and its rule test only (no build)
#   tools/run_checks.sh --tidy     # additionally run clang-tidy (needs the
#                                  # clang-tidy binary on PATH)
#
# The script is what CI runs; keeping it green locally keeps CI green.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

QUICK=0
TIDY=0
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --tidy) TIDY=1 ;;
    *)
      echo "unknown argument: ${arg}" >&2
      exit 2
      ;;
  esac
done

echo "== ada_lint =="
python3 tools/ada_lint.py src/ tests/ bench/ tools/ examples/

echo "== ada_lint_test =="
python3 tools/ada_lint_test.py

if [[ "${QUICK}" == "1" ]]; then
  echo "run_checks: lint clean (quick mode, skipping build)"
  exit 0
fi

BUILD_DIR="build-checks"
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release -DADA_WERROR=ON)
if [[ "${TIDY}" == "1" ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "run_checks: --tidy requested but clang-tidy is not on PATH" >&2
    exit 2
  fi
  CMAKE_ARGS+=(-DADA_CLANG_TIDY=ON)
fi

echo "== configure (${CMAKE_ARGS[*]}) =="
cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"

echo "== build (warnings are errors) =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo "== service targets =="
# The full build above already covers these; naming them here makes the
# check fail loudly if the server or client is ever dropped from the
# tools/ CMakeLists.
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target ada_server ada_client
test -x "${BUILD_DIR}/tools/ada_server"
test -x "${BUILD_DIR}/tools/ada_client"

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "run_checks: all checks passed"
