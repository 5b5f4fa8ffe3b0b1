#!/usr/bin/env bash
# check.sh — one-shot correctness gate for every PR.
#
# Runs, in order, failing fast on any regression:
#   1. check preset   : hardened warnings + -Werror build, ctest -L ci
#                       (unit tests + lint_test + lint_selftest)
#   2. sanitize preset: ASan+UBSan build, full ctest
#   3. clang-tidy     : tools/run_tidy.sh against the frozen baseline
#                       (skips cleanly when clang-tidy is not installed)
#
# Usage: tools/check.sh [--fast] [--bench] [--trace] [--chaos] [--shard]
#                       [--simd] [--purity] [--traffic] [--perfbench]
#                       [--static] [--same-bytes <git-ref>]
#   --fast   skip the sanitizer stage (inner-loop use; CI runs everything)
#   --bench  additionally run the bench_smoke suite (1-rep end-to-end runs
#            of every sweep bench, including the bench_scale
#            engine_sK == engine bit-identity gate). Each fresh
#            BENCH_*.json artifact is diffed against the
#            baseline directory (CELLFI_BENCH_BASELINE, default
#            bench/baselines/) with tools/bench_compare.py; a >20%
#            per-point wall-time regression fails the gate, while brand-new
#            labels are reported but pass (--allow-new-labels).
#   --trace  additionally run the observability suite (`ctest -L trace`:
#            golden trace, vacate trace checks, trace_check.py selftest)
#            under the ASan+UBSan build. Implies the sanitize configure
#            even with --fast.
#   --chaos  additionally run the chaos suite (`ctest -L chaos`: fault
#            plans, invariant checker, campaign bit-identity, sweep
#            supervisor) under the ASan+UBSan build. Implies the sanitize
#            configure even with --fast.
#   --shard  additionally build the sanitize-tsan preset and run the shard
#            suite (`ctest -L shard`: worker pool, shard grid, shard
#            metrics, multi-threaded subframe bit-identity across shard
#            counts, and the sweep runner that shares the worker pool)
#            under ThreadSanitizer — the data-race gate for DESIGN.md
#            §10 and §15.
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
#   --traffic additionally run the aggregate-load suite (`ctest -L
#            traffic`: generator units, sensor bookkeeping, aggregate-vs-
#            full-sim cross-validation, flash-crowd hop trigger, golden
#            diurnal trace, tier bit-identity) under the ASan+UBSan build.
#            Implies the sanitize configure even with --fast.
#   --perfbench additionally run the benchmark's self-test
#            (python3 perfbench/test_perfbench.py: builds the Release
#            cellfi_perfbench into .bench_build/, then checks that traced
#            per-layer counts repeat across same-seed runs and that the
#            benchmark's scenario assembly gives scenario::RunScenario's
#            bytes and passes the outcome gates). About a minute.
#   --static run ONLY the static gates — determinism lint (--strict-allow),
#            clang-tidy vs baseline, and the purity analyzer — with a
#            configure-only cmake step for compile_commands.json and no
#            builds or sanitizers. Seconds, not minutes; the pre-push
#            inner loop.
#   --same-bytes <git-ref>
#            run ONLY the same-bytes gate for a change that must not alter
#            results: `git archive` <git-ref> into a temp dir, build
#            cellfi_perfbench from perfbench/CMakeLists.txt for it and for
#            the working tree (Release, into build dirs outside perfbench/),
#            run both workloads (fig9_cellfi, users_agg) at seeds 1 and 97
#            with each binary, and fail if any `outcome` string differs.
#            Those workloads run with fading on, so it also builds
#            examples/run_scenario for both and `cmp`s their JSON reports
#            on four fading-off configs written from --print-config (plain
#            LTE backlogged with 16 APs, CellFi web, and 802.11af and the
#            oracle backlogged, whose carrier sense, association and
#            conflict graph read link gains no perfbench workload runs).
#            The same builds give bench_cqi_detector and bench_fig8, which
#            drive the CQI interference detector directly; their stdout is
#            `cmp`ed too. A few minutes: four library builds, eight
#            replications, eight scenarios and four detector benches.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

FAST=0
BENCH=0
TRACE=0
CHAOS=0
SHARD=0
SIMD=0
PURITY=0
TRAFFIC=0
PERFBENCH=0
STATIC=0
SAME_BYTES_REF=""
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    --trace) TRACE=1 ;;
    --chaos) CHAOS=1 ;;
    --shard) SHARD=1 ;;
    --simd) SIMD=1 ;;
    --purity) PURITY=1 ;;
    --traffic) TRAFFIC=1 ;;
    --perfbench) PERFBENCH=1 ;;
    --static) STATIC=1 ;;
    --same-bytes)
      if [[ $# -eq 0 ]]; then
        echo "check.sh: --same-bytes needs a git ref" >&2
        exit 2
      fi
      SAME_BYTES_REF="$1"
      shift
      ;;
    *) echo "check.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

step() { printf '\n=== check.sh: %s ===\n' "$*"; }

if [[ -n "$SAME_BYTES_REF" ]]; then
  ref_sha="$(git rev-parse --verify "$SAME_BYTES_REF^{commit}")"
  ref_dir="$(mktemp -d)"
  trap 'rm -rf "$ref_dir"' EXIT

  step "same-bytes: build cellfi_perfbench at $SAME_BYTES_REF ($ref_sha)"
  mkdir -p "$ref_dir/src"
  git archive "$ref_sha" | tar -x -C "$ref_dir/src"
  cmake -S "$ref_dir/src/perfbench" -B "$ref_dir/build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ref_dir/build" -j "$(nproc)" --target cellfi_perfbench

  step "same-bytes: build cellfi_perfbench from the working tree"
  tree_build="$ROOT/build-same-bytes"
  cmake -S "$ROOT/perfbench" -B "$tree_build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$tree_build" -j "$(nproc)" --target cellfi_perfbench

  step "same-bytes: outcome JSON, $SAME_BYTES_REF vs working tree"
  mismatches=0
  for workload in fig9_cellfi users_agg; do
    for seed in 1 97; do
      "$ref_dir/build/cellfi_perfbench" "$workload" "$seed" 0 > "$ref_dir/ref.json"
      "$tree_build/cellfi_perfbench" "$workload" "$seed" 0 > "$ref_dir/tree.json"
      if python3 - "$ref_dir/ref.json" "$ref_dir/tree.json" <<'PY'
import json, sys
ref, tree = (json.loads(open(p).read().strip().splitlines()[-1]) for p in sys.argv[1:3])
sys.exit(0 if ref["outcome"] == tree["outcome"] else 1)
PY
      then
        echo "$workload seed $seed: identical"
      else
        echo "$workload seed $seed: OUTCOME DIFFERS" >&2
        mismatches=$((mismatches + 1))
      fi
    done
  done

  step "same-bytes: build run_scenario and the detector benches at $SAME_BYTES_REF and from the working tree"
  scenario_targets=(run_scenario bench_cqi_detector bench_fig8)
  cmake -S "$ref_dir/src" -B "$ref_dir/build-scenario" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ref_dir/build-scenario" -j "$(nproc)" --target "${scenario_targets[@]}"
  tree_scenario_build="$ROOT/build-same-bytes-scenario"
  cmake -S "$ROOT" -B "$tree_scenario_build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$tree_scenario_build" -j "$(nproc)" --target "${scenario_targets[@]}"

  step "same-bytes: fading-off run_scenario reports, $SAME_BYTES_REF vs working tree"
  "$tree_scenario_build/examples/run_scenario" --print-config > "$ref_dir/default.json"
  python3 - "$ref_dir" <<'PY'
import json, os, sys
out = sys.argv[1]
base = json.load(open(os.path.join(out, "default.json")))
base["enable_fading"] = False
configs = {
    "lte_backlogged_16ap": {"tech": "lte", "workload": "backlogged",
                            "topology": dict(base["topology"], num_aps=16)},
    "cellfi_web": {"tech": "cellfi", "workload": "web"},
    "80211af_backlogged": {"tech": "80211af", "workload": "backlogged"},
    "oracle_backlogged": {"tech": "oracle", "workload": "backlogged"},
}
for name, edits in configs.items():
    with open(os.path.join(out, name + ".json"), "w") as f:
        json.dump(dict(base, **edits), f)
PY
  for config in lte_backlogged_16ap cellfi_web 80211af_backlogged oracle_backlogged; do
    "$ref_dir/build-scenario/examples/run_scenario" "$ref_dir/$config.json" \
      > "$ref_dir/$config.ref.out"
    "$tree_scenario_build/examples/run_scenario" "$ref_dir/$config.json" \
      > "$ref_dir/$config.tree.out"
    if cmp -s "$ref_dir/$config.ref.out" "$ref_dir/$config.tree.out"; then
      echo "$config (fading off): identical"
    else
      echo "$config (fading off): REPORT DIFFERS" >&2
      mismatches=$((mismatches + 1))
    fi
  done

  step "same-bytes: CQI detector benches, $SAME_BYTES_REF vs working tree"
  for bench in bench_cqi_detector bench_fig8; do
    "$ref_dir/build-scenario/bench/$bench" > "$ref_dir/$bench.ref.out"
    "$tree_scenario_build/bench/$bench" > "$ref_dir/$bench.tree.out"
    if cmp -s "$ref_dir/$bench.ref.out" "$ref_dir/$bench.tree.out"; then
      echo "$bench: identical"
    else
      echo "$bench: OUTPUT DIFFERS" >&2
      mismatches=$((mismatches + 1))
    fi
  done

  if [[ "$mismatches" -ne 0 ]]; then
    echo "check.sh: $mismatches outcome(s), report(s) or bench output(s) differ from $SAME_BYTES_REF" >&2
    exit 1
  fi
  step "same-bytes gate passed"
  exit 0
fi

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

if [[ "$TRACE" -eq 1 || "$CHAOS" -eq 1 || "$TRAFFIC" -eq 1 ]]; then
  if [[ "$FAST" -eq 1 ]]; then
    step "configure + build (sanitize preset, for --trace/--chaos/--traffic)"
    cmake --preset sanitize
    cmake --build --preset sanitize -j "$(nproc)"
  fi
fi

if [[ "$TRACE" -eq 1 ]]; then
  step "observability suite under ASan+UBSan (ctest -L trace)"
  ctest --test-dir "$ROOT/build-sanitize" -L trace --output-on-failure
fi

if [[ "$CHAOS" -eq 1 ]]; then
  step "chaos suite under ASan+UBSan (ctest -L chaos)"
  ctest --test-dir "$ROOT/build-sanitize" -L chaos --output-on-failure
fi

if [[ "$TRAFFIC" -eq 1 ]]; then
  step "aggregate-load traffic suite under ASan+UBSan (ctest -L traffic)"
  ctest --test-dir "$ROOT/build-sanitize" -L traffic --output-on-failure
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
  step "benchmark self-test (perfbench/test_perfbench.py)"
  python3 perfbench/test_perfbench.py
fi

if [[ "$BENCH" -eq 1 ]]; then
  step "bench_smoke suite (1-rep sweeps + bench_scale engine_sK == engine gate)"
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
