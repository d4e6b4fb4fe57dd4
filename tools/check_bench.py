#!/usr/bin/env python3
"""Bench-regression gate: fails when a fresh BENCH_*.json falls more than
--threshold (default 30%) below the committed baseline's throughput.

Usage: check_bench.py [--threshold=0.30] BASELINE=FRESH [BASELINE=FRESH ...]

e.g.  check_bench.py BENCH_build.json=/tmp/fresh_build.json

Policy (see docs/ci.md):
  - Throughput is compared ONLY when `hardware_threads` and the workload
    shape match between baseline and fresh run — a 4-core CI runner is
    not comparable to the 1-core container the baseline was recorded on,
    and a --smoke run is not comparable to a full-size one. Mismatches
    SKIP the comparison (with a note), they do not fail.
  - Structure is validated ALWAYS: a bench that stopped emitting its
    metric fails the gate even when the comparison is skipped, so a
    broken emitter cannot hide behind a hardware mismatch.
  - A regression fails; an improvement is reported and passes. The gate
    is deliberately loose (30%) because the numbers come from shared CI
    runners — it catches "the build got 10x slower", not 2% drift.

Stdlib only: this runs in CI and in environments where nothing can be
pip-installed.
"""
import json
import sys
from pathlib import Path

# bench name -> (dotted path to the throughput metric, human unit).
# Serving is measured by perfbench/ and bounded by BENCHMARK.json, not here.
METRICS = {
    "build_throughput": ("candidates_per_sec", "candidates/s"),
}

# bench name -> keys that define the workload shape; a compare only makes
# sense when every one of them matches.
WORKLOAD_KEYS = {
    # "simd" makes the gate tier-aware: a --simd=scalar run is a different
    # workload from an avx512 one and the two are never compared.
    "build_throughput": ("attrs", "rows", "k", "smoke", "simd"),
}


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_build_structure(path, doc):
    """Structure checks specific to build_throughput: the SIMD dispatch
    fields are validated unconditionally — in every document, whether or
    not the throughput comparison runs — so an emitter that stops
    recording its tier cannot hide behind a workload mismatch."""
    failures = []
    simd = doc.get("simd")
    if not isinstance(simd, str) or not simd:
        failures.append(f"{path}: 'simd' missing or not a tier name "
                        f"({simd!r})")
    tiers = doc.get("simd_tiers")
    if not isinstance(tiers, list) or not tiers:
        failures.append(f"{path}: 'simd_tiers' missing or empty ({tiers!r})")
    else:
        for i, entry in enumerate(tiers):
            if (not isinstance(entry, dict)
                    or not isinstance(entry.get("tier"), str)
                    or not is_number(entry.get("plane_ms"))
                    or entry.get("plane_ms") <= 0
                    or not is_number(entry.get("speedup_vs_scalar"))
                    or entry.get("speedup_vs_scalar") <= 0):
                failures.append(f"{path}: simd_tiers[{i}] malformed "
                                f"({entry!r})")
    if "large" not in doc:
        failures.append(f"{path}: 'large' key absent (must be null or the "
                        f"wide-id workload record)")
    elif doc["large"] is not None:
        large = doc["large"]
        for key in ("attrs", "rows", "sampled_tails", "sampled_heads",
                    "pack_ms", "reuse_lookup_ms", "pack_reuse_speedup"):
            if not is_number(large.get(key)) or large.get(key) <= 0:
                failures.append(f"{path}: large.{key} missing or "
                                f"non-positive ({large.get(key)!r})")
        if large.get("wide_snapshot_ok") is not True:
            failures.append(f"{path}: large.wide_snapshot_ok is not true — "
                            f"the wide-id snapshot round-trip failed")
        ltiers = large.get("tiers")
        if not isinstance(ltiers, list) or not ltiers:
            failures.append(f"{path}: large.tiers missing or empty "
                            f"({ltiers!r})")
        else:
            for i, entry in enumerate(ltiers):
                if (not isinstance(entry, dict)
                        or not isinstance(entry.get("tier"), str)
                        or not is_number(entry.get("candidates_per_sec"))
                        or entry.get("candidates_per_sec") <= 0):
                    failures.append(f"{path}: large.tiers[{i}] malformed "
                                    f"({entry!r})")
    return failures


def dig(doc, dotted):
    value = doc
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle), None
    except FileNotFoundError:
        return None, f"{path}: file not found"
    except json.JSONDecodeError as error:
        return None, f"{path}: not valid JSON ({error})"


def check_pair(baseline_path, fresh_path, threshold):
    """Returns a list of failure strings (empty = this pair passes)."""
    failures = []
    baseline, error = load(baseline_path)
    if error:
        return [error]
    fresh, error = load(fresh_path)
    if error:
        return [error]

    bench = baseline.get("bench")
    if bench not in METRICS:
        return [f"{baseline_path}: unknown bench kind {bench!r}"]
    if fresh.get("bench") != bench:
        return [f"{fresh_path}: bench kind {fresh.get('bench')!r} does not "
                f"match baseline {bench!r}"]

    metric_path, unit = METRICS[bench]
    base_value = dig(baseline, metric_path)
    fresh_value = dig(fresh, metric_path)
    # Structural validation is unconditional: a missing metric is a
    # broken emitter, never a skip.
    for path, value in ((baseline_path, base_value),
                        (fresh_path, fresh_value)):
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(
                f"{path}: metric {metric_path!r} missing or non-positive "
                f"({value!r})")
    failures.extend(check_build_structure(baseline_path, baseline))
    failures.extend(check_build_structure(fresh_path, fresh))
    if failures:
        return failures

    base_hw = baseline.get("hardware_threads")
    fresh_hw = fresh.get("hardware_threads")
    if base_hw != fresh_hw:
        print(f"  SKIP  {bench}: hardware_threads {fresh_hw} != baseline "
              f"{base_hw} (not comparable; structure validated)")
        return []
    mismatched = [key for key in WORKLOAD_KEYS[bench]
                  if baseline.get(key) != fresh.get(key)]
    if mismatched:
        print(f"  SKIP  {bench}: workload shape differs on "
              f"{', '.join(mismatched)} (not comparable; structure "
              f"validated)")
        return []

    floor = base_value * (1.0 - threshold)
    ratio = fresh_value / base_value
    verdict = "FAIL" if fresh_value < floor else "ok"
    print(f"  {verdict:5} {bench}: {fresh_value:,.0f} {unit} vs baseline "
          f"{base_value:,.0f} ({100.0 * ratio:.1f}%, floor "
          f"{100.0 * (1.0 - threshold):.0f}%)")
    if fresh_value < floor:
        failures.append(
            f"{fresh_path}: {bench} regressed to {100.0 * ratio:.1f}% of "
            f"baseline {baseline_path} (allowed floor "
            f"{100.0 * (1.0 - threshold):.0f}%)")
    return failures


def main(argv):
    threshold = 0.30
    pairs = []
    for arg in argv:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
            if not 0.0 < threshold < 1.0:
                print(f"--threshold must be in (0, 1), got {threshold}")
                return 2
        elif "=" in arg:
            baseline, fresh = arg.split("=", 1)
            pairs.append((Path(baseline), Path(fresh)))
        else:
            print(__doc__)
            return 2
    if not pairs:
        print(__doc__)
        return 2

    print(f"bench gate: threshold {100.0 * threshold:.0f}%")
    failures = []
    for baseline_path, fresh_path in pairs:
        failures.extend(check_pair(baseline_path, fresh_path, threshold))
    if failures:
        print("\nbench gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
