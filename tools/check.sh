#!/usr/bin/env bash
# check.sh — one-shot correctness gate for every PR.
#
# Runs, in order, failing fast on any regression:
#   1. check preset   : hardened warnings + -Werror build, ctest -L ci
#                       (unit tests + lint_test + lint_selftest)
#   2. sanitize preset: ASan+UBSan build, full ctest — every label,
#                       trace / chaos / traffic included (run one label
#                       alone with `ctest --preset sanitize -L <label>`)
#   3. clang-tidy     : tools/run_tidy.sh against the frozen baseline
#                       (skips cleanly when clang-tidy is not installed)
#
# Usage: tools/check.sh [--fast] [--bench] [--shard] [--simd] [--purity]
#                       [--perfbench] [--static]
#   --fast   skip the sanitizer stage (inner-loop use; CI runs everything)
#   --bench  additionally run the bench_smoke suite (1-rep end-to-end runs
#            of every sweep bench, including the bench_scale bit-identity
#            gate). Each fresh BENCH_*.json artifact is diffed against the
#            baseline directory (CELLFI_BENCH_BASELINE, default
#            bench/baselines/) with tools/bench_compare.py; a >20%
#            per-point wall-time regression fails the gate, while brand-new
#            labels are reported but pass (--allow-new-labels).
#   --shard  additionally build the sanitize-tsan preset and run the shard
#            suite (`ctest -L shard`: worker pool, shard grid,
#            multi-threaded subframe bit-identity) under
#            ThreadSanitizer — the data-race gate for DESIGN.md §15.
#   --simd   additionally build the simd-off preset (CELLFI_SIMD=OFF,
#            scalar reference kernels) and run the SIMD parity suite
#            (`ctest -L simd`) in BOTH trees, threading a kernel-output
#            digest from the SIMD build to the scalar build
#            (CELLFI_SIMD_DIGEST_OUT/_EXPECT) — the cross-build
#            bit-identity gate for DESIGN.md §17.
#   --purity additionally run the phase-purity analyzer
#            (tools/cellfi_purity.py --repo . --strict-allow) against the
#            frozen (empty) baseline — the static proof of the DESIGN.md
#            §16 determinism contracts.
#   --perfbench additionally run the perfbench digest gate: the driver's
#            equivalence self-test (`perfbench/run.py --selftest`), then one
#            full untraced 1 s pass of every workload (`--seed 0
#            --seconds 1`), which checks every sample's output digest
#            against perfbench/expected_digests.json and fails on any
#            mismatch or invariant violation. About 25 s plus the driver
#            build (into $CARGO_TARGET_DIR, default .bench_build/).
#   --static run ONLY the static gates — determinism lint (--strict-allow),
#            clang-tidy vs baseline, and the purity analyzer — with a
#            configure-only cmake step for compile_commands.json and no
#            builds or sanitizers. Seconds, not minutes; the pre-push
#            inner loop.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

FAST=0
BENCH=0
SHARD=0
SIMD=0
PURITY=0
PERFBENCH=0
STATIC=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    --shard) SHARD=1 ;;
    --simd) SIMD=1 ;;
    --purity) PURITY=1 ;;
    --perfbench) PERFBENCH=1 ;;
    --static) STATIC=1 ;;
    *) echo "check.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

step() { printf '\n=== check.sh: %s ===\n' "$*"; }

if [[ "$STATIC" -eq 1 ]]; then
  step "configure only (check preset, for compile_commands.json)"
  cmake --preset check

  step "determinism lint (cellfi_lint.py --strict-allow)"
  python3 tools/cellfi_lint.py --repo "$ROOT" --strict-allow

  step "clang-tidy vs frozen baseline"
  tools/run_tidy.sh --build-dir "$ROOT/build-check"

  step "phase-purity analyzer vs frozen baseline"
  python3 tools/cellfi_purity.py --repo "$ROOT" --strict-allow \
    --build-dir "$ROOT/build-check"

  step "all static gates passed"
  exit 0
fi

step "configure + build (check preset: hardened warnings, -Werror)"
cmake --preset check
cmake --build --preset check -j "$(nproc)"

step "ctest -L ci (unit tests + determinism lint)"
ctest --preset check

if [[ "$FAST" -eq 0 ]]; then
  step "configure + build (sanitize preset: ASan+UBSan)"
  cmake --preset sanitize
  cmake --build --preset sanitize -j "$(nproc)"

  step "ctest (sanitize)"
  ctest --preset sanitize
else
  step "skipping sanitize stage (--fast)"
fi

if [[ "$SHARD" -eq 1 ]]; then
  step "configure + build (sanitize-tsan preset, for --shard)"
  cmake --preset sanitize-tsan
  cmake --build --preset sanitize-tsan -j "$(nproc)"

  step "shard suite under ThreadSanitizer (ctest -L shard)"
  ctest --test-dir "$ROOT/build-sanitize-tsan" -L shard --output-on-failure
fi

if [[ "$SIMD" -eq 1 ]]; then
  step "configure + build (simd-off preset: CELLFI_SIMD=OFF scalar reference)"
  cmake --preset simd-off
  cmake --build --preset simd-off -j "$(nproc)"

  step "SIMD parity suite, CELLFI_SIMD=ON tree (ctest -L simd)"
  digest="$ROOT/build-check/simd_digest.txt"
  rm -f "$digest"
  CELLFI_SIMD_DIGEST_OUT="$digest" \
    ctest --test-dir "$ROOT/build-check" -L simd --output-on-failure

  step "SIMD parity suite, CELLFI_SIMD=OFF tree + cross-build digest"
  if [[ ! -s "$digest" ]]; then
    echo "check.sh: SIMD digest was not produced by the ON-tree suite" >&2
    exit 1
  fi
  CELLFI_SIMD_DIGEST_EXPECT="$digest" ctest --preset simd-off
  echo "cross-build kernel digest: $(cat "$digest")"
fi

step "clang-tidy vs frozen baseline"
tools/run_tidy.sh --build-dir "$ROOT/build-check"

if [[ "$PURITY" -eq 1 ]]; then
  step "phase-purity analyzer vs frozen baseline"
  python3 tools/cellfi_purity.py --repo "$ROOT" --strict-allow \
    --build-dir "$ROOT/build-check"
fi

if [[ "$PERFBENCH" -eq 1 ]]; then
  step "perfbench driver self-test (equivalence with RunScenarioOn, env pin)"
  python3 perfbench/run.py --selftest

  for workload in fig9_cellfi fig9_lte_mobile metro_lte; do
    step "perfbench digest pass: $workload (seed 0, one untraced pass)"
    python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1
  done
fi

if [[ "$BENCH" -eq 1 ]]; then
  step "bench_smoke suite (1-rep sweeps + bench_scale bit-identity gate)"
  ctest --test-dir "$ROOT/build-check" -C bench_smoke -L bench_smoke --output-on-failure

  # Default to the committed seed baselines; point CELLFI_BENCH_BASELINE
  # elsewhere (or at an empty dir) to compare against a local capture.
  BASELINE_DIR="${CELLFI_BENCH_BASELINE:-$ROOT/bench/baselines}"
  if [[ -d "$BASELINE_DIR" ]]; then
    step "bench wall-time comparison vs $BASELINE_DIR"
    compared=0
    for cur in "$ROOT"/build-check/bench/BENCH_*.json; do
      [[ -e "$cur" ]] || continue
      base="$BASELINE_DIR/$(basename "$cur")"
      if [[ -f "$base" ]]; then
        echo "-- $(basename "$cur")"
        # --allow-new-labels: freshly added bench points have no baseline
        # yet; they are listed, not failed (bench_compare's exit-3 path
        # would otherwise precede — and mask — the regression check).
        python3 tools/bench_compare.py --allow-new-labels "$base" "$cur"
        compared=$((compared + 1))
      else
        echo "-- $(basename "$cur"): no baseline, skipped"
      fi
    done
    echo "compared $compared artifact(s)"
  else
    echo "bench baseline dir $BASELINE_DIR missing — comparison skipped"
  fi
fi

step "all gates passed"
