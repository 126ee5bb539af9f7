#!/usr/bin/env python3
"""Gate bench results against a committed baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json
        [--tolerance 0.25] [--key-tolerance KEY=FRAC ...]

CURRENT.json is what a bench harness (`bench_incremental --smoke --json
CURRENT.json`, `bench_solver_stack --smoke --json ...`) just wrote;
BASELINE.json is the committed BENCH_baseline.json. Each harness has its
own gate profile, selected by the "bench" field CURRENT.json carries.
The gate fails (exit 1) when:

  - a gated time metric regressed by more than its tolerance (the
    per-key default below, overridable with --key-tolerance; --tolerance
    shifts the default for keys without their own entry),
  - or a correctness check the bench reports (same_outcomes, ...) went
    false.

A gated key missing from either file is a hard error that names the key
and the file, so a bench schema drift fails loudly instead of silently
ungating the metric.

BASELINE.json maps bench name -> that bench's committed result document:

    {"bench_incremental": {...}, "bench_solver_stack": {...}}

A legacy flat baseline (a single bench document at top level) is still
accepted when its "bench" field matches the current document's.

Refresh a baseline entry by re-running the bench and splicing its
--json output under the bench's key.
"""

import argparse
import json
import sys

# Per-bench gate profiles. "time" maps each gated time metric to its
# default fractional regression tolerance (None = use --tolerance);
# "bool" lists correctness checks that must be true in CURRENT.json.
GATE_PROFILES = {
    "bench_incremental": {
        "time": {"total_solver_inc_seconds": None},
        "bool": ("same_outcomes", "any_1_5x_same"),
    },
    "bench_solver_stack": {
        # The shipped default (rewrite and preprocess off) and the
        # all-stages-on ablation are both gated.
        "time": {"total_solver_default_seconds": None,
                 "total_solver_stack_seconds": None},
        "bool": ("same_outcomes",),
    },
    "bench_fuzz_throughput": {
        "time": {"total_fuzz_seconds": None},
        # compiled_backend_available + replay_speedup_ok gate the codegen
        # simulation backend: it must build on the CI host and replay at
        # least 10x faster than the IR interpreter (see
        # bench_fuzz_throughput.cc and docs/DESIGN.md "Compiled
        # simulation").
        "bool": ("coverage_growth", "oracle_clean_on_bugfree",
                 "compiled_backend_available", "replay_speedup_ok"),
    },
}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"cannot open '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"malformed JSON in '{path}': {e}")


def parse_key_tolerance(entries):
    overrides = {}
    for entry in entries:
        key, sep, frac = entry.partition("=")
        if not sep or not key:
            sys.exit(f"--key-tolerance wants KEY=FRACTION, got '{entry}'")
        try:
            overrides[key] = float(frac)
        except ValueError:
            sys.exit(f"bad fraction '{frac}' in --key-tolerance '{entry}'")
        if overrides[key] < 0:
            sys.exit(f"negative tolerance in --key-tolerance '{entry}'")
    return overrides


def gated_number(doc, path, key, positive=False):
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        sys.exit(f"'{path}' lacks gated numeric key '{key}' "
                 f"(found {value!r}); refresh the file or update the "
                 f"gate profiles in {sys.argv[0]}")
    if positive and value <= 0:
        sys.exit(f"'{path}' has non-positive '{key}' ({value!r}); a "
                 f"usable baseline needs a positive value")
    return value


def select_baseline(baseline, path, bench):
    """Pick the bench's document out of the committed baseline, accepting
    both the keyed shape and a legacy flat single-bench file."""
    entry = baseline.get(bench)
    if isinstance(entry, dict):
        return entry
    if baseline.get("bench") == bench:
        return baseline  # legacy flat baseline
    sys.exit(f"'{path}' has no baseline entry for bench '{bench}'; "
             f"run the bench with --json and commit its document under "
             f"that key")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="default allowed fractional time increase for "
                         "keys without their own entry "
                         "(default 0.25 = +25%%)")
    ap.add_argument("--key-tolerance", action="append", default=[],
                    metavar="KEY=FRAC",
                    help="per-key tolerance override, e.g. "
                         "total_solver_inc_seconds=0.4; repeatable")
    args = ap.parse_args()

    current = load(args.current)
    bench = current.get("bench")
    if bench not in GATE_PROFILES:
        sys.exit(f"'{args.current}' names unknown bench {bench!r}; "
                 f"known: {', '.join(sorted(GATE_PROFILES))}")
    profile = GATE_PROFILES[bench]
    baseline = select_baseline(load(args.baseline), args.baseline, bench)

    overrides = parse_key_tolerance(args.key_tolerance)
    unknown = set(overrides) - set(profile["time"])
    if unknown:
        sys.exit(f"--key-tolerance names key(s) ungated for {bench}: "
                 f"{', '.join(sorted(unknown))} "
                 f"(gated: {', '.join(sorted(profile['time']))})")

    failures = []
    for key in profile["bool"]:
        if key not in current:
            sys.exit(f"'{args.current}' lacks gated check '{key}'; "
                     f"refresh the file or update the gate profiles in "
                     f"{sys.argv[0]}")
        if current.get(key) is not True:
            failures.append(f"check '{key}' is {current.get(key)!r}, "
                            f"expected true")

    for key, default_tol in profile["time"].items():
        tolerance = overrides.get(
            key, default_tol if default_tol is not None else args.tolerance)
        base_t = gated_number(baseline, args.baseline, key, positive=True)
        cur_t = gated_number(current, args.current, key)
        limit = base_t * (1.0 + tolerance)
        ratio = cur_t / base_t
        print(f"{key}: current {cur_t:.3f}s vs baseline {base_t:.3f}s "
              f"({ratio:.2f}x, limit {limit:.3f}s, "
              f"tolerance +{tolerance:.0%})")
        if cur_t > limit:
            failures.append(
                f"'{key}' regressed {ratio:.2f}x over baseline "
                f"(> +{tolerance:.0%})")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"bench regression gate ({bench}): OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
