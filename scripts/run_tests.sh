#!/usr/bin/env bash
# Build and run the test suite, optionally restricted to a CTest label.
#
#   scripts/run_tests.sh            # full suite, then again in build-generic/
#                                   # (CCPERF_NATIVE_KERNELS=OFF,
#                                   # CCPERF_WERROR=ON)
#   scripts/run_tests.sh kernels    # math kernels, threading, layer primitives
#   scripts/run_tests.sh cloud      # cloud cost/latency model + simulator
#   scripts/run_tests.sh integration
#   scripts/run_tests.sh fuzz
#   scripts/run_tests.sh robustness # fault replay, snapshot/restore, fuzzing
#   scripts/run_tests.sh sdc        # silent-data-corruption layer: ABFT
#                                   # kernels, weight-CRC scrubbing, SDC
#                                   # policy model + serving/enumeration
#   scripts/run_tests.sh static     # lint gates: clang-tidy, kernel ODR/ISA
#                                   # leak check, determinism lint, units
#                                   # lint, units negative-compile proof
#
# Labels are assigned in tests/CMakeLists.txt via
# ccperf_add_test(... LABELS x y); a suite may carry several. The static
# label wraps the scripts/{run_static_analysis,check_kernel_odr,
# check_determinism_lint,check_units_lint}.sh gates as ctest entries, plus
# the common/units.h negative-compile proof stamped at configure time.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCCPERF_BUILD_TESTS=ON
cmake --build build -j "$(nproc)"

if [[ -n "$LABEL" ]]; then
  ctest --test-dir build --output-on-failure -j "$(nproc)" -L "$LABEL"
else
  ctest --test-dir build --output-on-failure -j "$(nproc)"
  # Host matrix: the same suite on portable (non -march=native) kernels,
  # warnings as errors, at the default build type, so ISA-dependent
  # behaviour is covered on every host.
  cmake -B build-generic -S . -DCCPERF_BUILD_TESTS=ON \
    -DCCPERF_NATIVE_KERNELS=OFF -DCCPERF_WERROR=ON
  cmake --build build-generic -j "$(nproc)"
  ctest --test-dir build-generic --output-on-failure -j "$(nproc)"
fi
