#!/usr/bin/env python3
"""End-to-end benchmark of Coppelia, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
workload runner (perfbench/perfbench.cc) from the checkout's sources into
.bench_build/perfbench; later runs only check that the build is current.
The runner executes the workload's ops (perfbench/ops/NAME.txt) one at a
time on one thread, in whole passes while another pass fits in S seconds.
This script checks every op against the result recorded beside it,
prints a digest of the work every op reported, and ends with one JSON
line:

  --trace 0  end-to-end metrics: setup_s, wall_s, cpu_s, peak_rss_mb
  --trace 1  per-layer metrics, from the counters the ops return and the
             fold of one extra pass run with the program's spans on

Every time is scaled to the host's speed. The runner times a probe of
its own before each op and between set-up repetitions: a chain of
dependent loads through memory and a run of multiplies that keeps a
core busy. A time measured while they took M and C seconds, each the
median over the pass or the set-up, is divided by the host's slowdown

  (M / PROBE_REF_S[0]) ** MEMORY_WEIGHT *
      (C / PROBE_REF_S[1]) ** (1 - MEMORY_WEIGHT)

The raw times and both parts are printed on stderr. NOTES.md says why,
and why each workload exists and what it leaves out.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench")
WORKLOADS = ("exploit-matrix", "patch-sweep", "bmc-check", "fuzz-loop")
# A run must end within 180 s once built. The longest, a traced run of
# bmc-check on a slow host, is two set-ups of about a second and two
# passes of up to 30 s.
RUNNER_TIMEOUT_S = 160
# EXPERIMENTS.md: the fold's smt.solve total and the summed
# solver_solve_us counters agree within 5%.
SOLVE_AGREEMENT = 0.05
# About the probe's (memory, core) times on a quiet 4-vCPU Xeon VM
# (Sapphire Rapids, 2.0 GHz); reported times read as seconds on a host
# whose probe takes that long.
PROBE_REF_S = (0.020, 0.008)
# The ops lean on memory more than on the core; over four runs of each
# workload, weighting the memory part 3:1 left the least spread (NOTES.md).
MEMORY_WEIGHT = 0.75

# What each op reported that its work is made of; equal digests mean
# equal work.
DIGEST_FIELDS = ("outcome", "iterations", "depth", "execs", "instructions",
                 "coverage_points")
DIGEST_STATS = ("solver_sat_calls", "solver_queries", "bmc_queries",
                "solver_sat_conflicts", "solver_sat_decisions",
                "solver_sat_propagations")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s; run from the root of a checkout"
             % ROOT, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def load_ops(workload):
    """(op, {field: expected value}) per line of ops/WORKLOAD.txt."""
    ops = []
    with open(os.path.join(HERE, "ops", workload + ".txt")) as f:
        for line in f:
            words = line.split("#", 1)[0].split()
            if words:
                expected = dict(w.split("=", 1) for w in words[1:])
                ops.append((words[0], expected))
    return ops


def misses(record, expected):
    """Fields of @p record that differ from the expectation."""
    out = []
    for field, want in expected.items():
        got = record.get(field)
        text = str(got).lower() if isinstance(got, bool) else str(got)
        if text != want:
            out.append("%s=%s (expected %s)" % (field, text, want))
    return out


def digest(records):
    work = []
    for r in records:
        stats = r.get("stats", {})
        work.append([r["op"]] + [r.get(k) for k in DIGEST_FIELDS] +
                    [stats.get(k) for k in DIGEST_STATS])
    return hashlib.sha256(json.dumps(work).encode()).hexdigest()[:16]


def total(records, key, kinds=None):
    return sum(r.get("stats", {}).get(key, 0) for r in records
               if kinds is None or r["op"].split(":")[0] in kinds)


def field_sum(records, key):
    return sum(r.get(key, 0) for r in records)


def fold_row(fold, name, col):
    return fold.get(name, {}).get(col, 0)


def probe_parts(probes):
    """Median (memory, core) time of the probe's samples, each over its
    reference."""
    return tuple(statistics.median(p[i] for p in probes) / PROBE_REF_S[i]
                 for i in (0, 1))


def slowdown(probes):
    """How much slower the host was than the reference: a weighted
    geometric mean of the probe's two parts."""
    memory, core = probe_parts(probes)
    return memory ** MEMORY_WEIGHT * core ** (1 - MEMORY_WEIGHT)


def setup_median(setup, time):
    """Median of time(repetition) over the set-up repetitions, scaled."""
    return (statistics.median(time(r) for r in setup["reps"])
            / slowdown(setup["probe_s"]))


def per_layer(records, traced, untraced_wall, setup, host):
    """Per-layer metrics of the traced pass. Its times are scaled by its
    own probes; @p untraced_wall and @p host come from the untraced
    passes."""
    fold = traced["fold"]
    bmc_ops = ("ifv", "ebmc")
    exploit_ops = [r for r in records if r["op"].startswith("exploit:")]
    fuzz_ops = [r for r in records if r["op"].startswith("fuzz:")]
    queries = total(records, "solver_queries") + total(records, "bmc_queries")
    sat_calls = total(records, "solver_sat_calls")
    searches = fold_row(fold, "bse.search", "count")
    fuzz_s = sum(r["s"] for r in fuzz_ops)
    instructions = field_sum(fuzz_ops, "instructions")
    bse_self_us = sum(row["self_us"] for name, row in fold.items()
                      if name.startswith("bse."))
    m = {
        "solver.solve_s": (total(records, "solver_solve_us") / 1e6, "s"),
        "solver.queries": (queries, "count"),
        "solver.sat_calls": (sat_calls, "count"),
        "solver.sat_share": (sat_calls / queries if queries else 0.0,
                             "ratio"),
        "solver.cache_hits": (total(records, "solver_cache_hits"), "count"),
        "solver.conflicts": (total(records, "solver_sat_conflicts"), "count"),
        "solver.decisions": (total(records, "solver_sat_decisions"), "count"),
        "solver.propagations": (total(records, "solver_sat_propagations"),
                                "count"),
        "solver.unknowns": (total(records, "solver_unknowns"), "count"),
        "solver.escalations": (total(records, "solver_escalations"),
                               "count"),
        "solver.preprocess_s": (fold_row(fold, "sat.preprocess", "total_us")
                                / 1e6, "s"),
        "solver.rewrite_s": (fold_row(fold, "smt.rewrite", "total_us") / 1e6,
                             "s"),
        "solver.preprocess_clauses_removed": (
            total(records, "solver_preprocess_clauses_removed"), "count"),
        "bse.searches": (searches, "count"),
        "bse.searches_per_op": (searches / len(exploit_ops)
                                if exploit_ops else 0.0, "ratio"),
        "bse.iterations": (field_sum(exploit_ops, "iterations"), "count"),
        "bse.fallbacks": (total(records, "incremental_fallbacks"), "count"),
        "bse.shrink_queries": (total(records, "shrink_queries"), "count"),
        "bse.shrink_pins": (total(records, "shrink_pins"), "count"),
        "bse.replay_rejects": (total(records, "replay_validation_rejects"),
                               "count"),
        "bse.self_s": (bse_self_us / 1e6, "s"),
        "sym.explore_self_s": (fold_row(fold, "sym.explore", "self_us") / 1e6,
                               "s"),
        "exploit.assemble_s": (fold_row(fold, "exploit.assemble", "total_us")
                               / 1e6, "s"),
        "exploit.replay_s": (fold_row(fold, "exploit.replay", "total_us")
                             / 1e6, "s"),
        "coi.analyze_s": (fold_row(fold, "coi.analyze", "total_us") / 1e6,
                          "s"),
        "bmc.check_s": (fold_row(fold, "bmc.check", "total_us") / 1e6, "s"),
        "bmc.self_s": (fold_row(fold, "bmc.check", "self_us") / 1e6, "s"),
        "bmc.depth_sum": (field_sum(records, "depth"), "count"),
        "bmc.solve_s": (total(records, "solver_solve_us", bmc_ops) / 1e6,
                        "s"),
        "bmc.sat_calls": (total(records, "solver_sat_calls", bmc_ops),
                          "count"),
        "fuzz.run_s": (fuzz_s, "s"),
        "fuzz.execs": (field_sum(fuzz_ops, "execs"), "count"),
        "fuzz.instructions": (instructions, "count"),
        "fuzz.instr_per_s": (instructions / fuzz_s if fuzz_s else 0.0,
                             "1/s"),
        "fuzz.coverage_points": (field_sum(fuzz_ops, "coverage_points"),
                                 "count"),
        "fuzz.corpus_size": (field_sum(fuzz_ops, "corpus_size"), "count"),
    }
    slow = slowdown(traced["pass"]["probe_s"])
    for name, (v, u) in m.items():
        if u == "s":
            m[name] = (v / slow, u)
        elif u == "1/s":
            m[name] = (v * slow, u)
    m.update({
        "trace.overhead_s": (traced["pass"]["wall_s"] / slow - untraced_wall,
                             "s"),
        "trace.dropped_events": (traced["dropped_events"], "count"),
        "cpu.build_s": (setup_median(setup, lambda r: r["build_s"]), "s"),
        "props.bind_s": (setup_median(setup, lambda r: r["bind_s"]), "s"),
        "bench.host_slowdown": (host["slowdown"], "ratio"),
        "bench.raw_wall_s": (host["raw_wall_s"], "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def trace_problems(records, traced):
    out = []
    if traced["dropped_events"] != 0:
        out.append("%d trace events dropped" % traced["dropped_events"])
    counted = total(records, "solver_solve_us")
    folded = fold_row(traced["fold"], "smt.solve", "total_us")
    if abs(folded - counted) > SOLVE_AGREEMENT * max(counted, 1):
        out.append("fold smt.solve %d us vs solver_solve_us %d us"
                   % (folded, counted))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    ops = load_ops(args.workload)
    cmd = [RUNNER, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += [op for op, _ in ops]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUNNER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("runner ran past %d s" % RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("runner exited with %d" % proc.returncode)
    out = json.loads(proc.stdout)

    passes = [p["ops"] for p in out["passes"]]
    if args.trace:
        passes.append(out["traced"]["pass"]["ops"])
    attempted = failed = 0
    problems = []
    for records in passes:
        for (op, expected), record in zip(ops, records):
            attempted += 1
            wrong = misses(record, expected)
            if wrong:
                failed += 1
                problems.append("%s: %s" % (op, ", ".join(wrong)))
    digests = sorted({digest(records) for records in passes})
    if len(digests) > 1:
        problems.append("passes did different work: digests "
                        + " ".join(digests))
    print("digest %s seed=%d %s" % (args.workload, args.seed,
                                    " ".join(digests)))

    raw = [p["wall_s"] for p in out["passes"]]
    slow = [slowdown(p["probe_s"]) for p in out["passes"]]
    walls = [w / k for w, k in zip(raw, slow)]
    print("perfbench: %s pass wall_s %s (raw %s, host slowdown %s;"
          " memory, core %s)" % (
              args.workload, " ".join("%.3f" % w for w in walls),
              " ".join("%.3f" % w for w in raw),
              " ".join("%.2f" % k for k in slow),
              " ".join("%.3f,%.3f" % probe_parts(p["probe_s"])
                       for p in out["passes"])), file=sys.stderr)
    if args.trace:
        traced = out["traced"]
        problems += trace_problems(traced["pass"]["ops"], traced)
        host = {"slowdown": statistics.median(slow),
                "raw_wall_s": statistics.median(raw)}
        metrics = per_layer(traced["pass"]["ops"], traced,
                            statistics.median(walls), out["setup"], host)
    else:
        metrics = {
            "setup_s": {"value": setup_median(
                out["setup"], lambda r: r["build_s"] + r["bind_s"]),
                "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(
                p["cpu_s"] / k for p, k in zip(out["passes"], slow)),
                "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
