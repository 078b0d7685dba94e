#!/usr/bin/env python3
"""Layer-attributed CellFi benchmark.

Runs one named workload for a fixed wall-clock budget and prints every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
by name and unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload fig9_cellfi --seed 3 --seconds 36 --trace 0

Run from the root of a checkout. The driver (perfbench/driver.cc) is built
from the checkout's sources into ``$CARGO_TARGET_DIR/perfbench`` (default
``.bench_build/perfbench``). Every timed sample is one fresh driver process,
so every sample starts from the same process state (see README.md, "Cold
versus warm"). ``--seed`` picks which recorded scenarios of the workload's
pool the run measures; each scenario's output digest is stored in
``expected_digests.json`` and every sample is checked against it.

Maintenance: ``--record-digests [--workload W]`` re-records that file
(only when the program's outputs change on purpose); ``--selftest`` runs
the driver's equivalence check against RunScenarioOn and the env pin.
"""

import argparse
import concurrent.futures
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "expected_digests.json")

# Scenario seeds with recorded digests: --seed n measures pool entries
# (n * scenarios + j) mod POOL for j < scenarios, so consecutive seeds
# measure disjoint scenario sets.
POOL = 128

# scenarios: distinct scenario seeds per run (cost varies between random
# topologies, so a run measures several and reports medians over them).
WORKLOADS = {
    "fig9_cellfi": {"scenarios": 16},
    "fig9_lte_mobile": {"scenarios": 16},
    "metro_lte": {"scenarios": 8},
}

END_TO_END = [
    ("setup_s", "s"),
    ("replication_s", "s"),
    ("sim_per_wall", "s/s"),
    ("subframe_p50_us", "us"),
    ("subframe_p99_us", "us"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("scenario.topology_s", "s"),
    ("radio.add_node.calls", "count"),
    ("radio.add_node.total_s", "s"),
    ("radio.add_node.max_ms", "ms"),
    ("radio.nodes", "count"),
    ("radio.moves", "count"),
    ("lte.add_cell_ue.total_s", "s"),
    ("lte.start_s", "s"),
    ("lte.first_subframe_ms", "ms"),
    ("lte.step.self_total_s", "s"),
    ("lte.step.self_p50_us", "us"),
    ("lte.step.self_p99_us", "us"),
    ("lte.offer_downlink.calls", "count"),
    ("lte.offer_downlink.total_s", "s"),
    ("lte.dl_bits", "bit"),
    ("lte.handovers", "count"),
    ("lte.disconnections", "count"),
    ("lte.harq_fail_ratio", "ratio"),
    ("lte.shards", "count"),
    ("lte.shard_threads", "count"),
    ("core.init_s", "s"),
    ("core.cqi_report.calls", "count"),
    ("core.cqi_report.total_s", "s"),
    ("core.cqi_report.mean_us", "us"),
    ("core.prach.calls", "count"),
    ("core.prach.total_s", "s"),
    ("core.hops", "count"),
    ("core.cells_hopping", "count"),
    ("sim.events", "count"),
    ("sim.events_per_subframe", "count"),
    ("chaos.invariant_checks", "count"),
    ("chaos.invariant_violations", "count"),
    ("trace.overhead_frac", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_driver():
    """Configure and build the driver; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench_driver")


def pinned_env():
    """The environment minus every CELLFI_* knob, and the knobs cleared."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("CELLFI_"))
    for k in cleared:
        del env[k]
    return env, cleared


def run_driver(driver, env, args, may_fail=False):
    """Runs the driver; returns its last stdout line as JSON, and its stderr."""
    proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=170)
    if proc.returncode != 0 and not (may_fail and proc.stdout.strip()):
        log(proc.stderr[-4000:])
        raise RuntimeError(f"driver {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scenario_seeds(workload, seed):
    k = WORKLOADS[workload]["scenarios"]
    return [(seed * k + j) % POOL + 1 for j in range(k)]


def load_digests():
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    i = int(q * (len(sorted_values) - 1) + 0.5)
    return sorted_values[min(i, len(sorted_values) - 1)]


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")


def check_sample(checks, expected, sample):
    name = f"{sample['workload']} scenario {sample['seed']}"
    want = expected.get(str(sample["seed"]))
    checks.check(sample["digest"] == want,
                 f"{name} digest {sample['digest']} != recorded {want}")
    checks.check(sample["invariant_violations"] == 0,
                 f"{name}: {sample['invariant_violations']} invariant violations")
    if sample["traced"]:
        layers = sample["layers"]
        checks.check(8 * layers["dl_delivered_bytes"] == sample["dl_bits"],
                     f"{name}: obs lte.dl_delivered_bytes disagrees with on_dl_delivered")


def end_to_end(samples):
    """Medians over the run's samples. A sample slowed by a burst of host
    contention therefore moves no metric, as it would a pooled mean or a
    pooled tail percentile."""
    def med(fn):
        return statistics.median(fn(s) for s in samples)

    def step_percentile(q):
        return med(lambda s: percentile(sorted(s["step_us"]), q))

    values = {
        "setup_s": med(lambda s: s["setup_s"]),
        "replication_s": med(lambda s: s["setup_s"] + s["steady_s"]),
        "sim_per_wall": med(lambda s: s["subframes"] * 1e-3 / s["steady_s"]),
        "subframe_p50_us": step_percentile(0.50),
        "subframe_p99_us": step_percentile(0.99),
        "peak_rss_mb": med(lambda s: s["peak_rss_mb"]),
    }
    return values, samples[0]["subframes"]


def per_layer(traced, untraced):
    """Medians over the traced samples (counts are exact per scenario)."""
    def med(fn):
        return statistics.median(fn(s) for s in traced)

    def span(name, field):
        return med(lambda s: s["layers"][name][field])

    traced_rep = statistics.median(s["setup_s"] + s["steady_s"] for s in traced)
    untraced_rep = statistics.median(s["setup_s"] + s["steady_s"] for s in untraced)
    return {
        "scenario.topology_s": span("topology", "total_s"),
        "radio.add_node.calls": span("add_node", "calls"),
        "radio.add_node.total_s": span("add_node", "total_s"),
        "radio.add_node.max_ms": span("add_node", "max_s") * 1e3,
        "radio.nodes": med(lambda s: s["layers"]["radio_nodes"]),
        "radio.moves": med(lambda s: s["layers"]["moves"]),
        "lte.add_cell_ue.total_s": span("add_cell_ue", "total_s"),
        "lte.start_s": span("start", "total_s"),
        "lte.first_subframe_ms": med(lambda s: s["layers"]["first_subframe_s"]) * 1e3,
        "lte.step.self_total_s": span("step", "self_s"),
        "lte.step.self_p50_us": med(lambda s: s["layers"]["step_self_p50_us"]),
        "lte.step.self_p99_us": med(lambda s: s["layers"]["step_self_p99_us"]),
        "lte.offer_downlink.calls": span("offer_downlink", "calls"),
        "lte.offer_downlink.total_s": span("offer_downlink", "total_s"),
        "lte.dl_bits": med(lambda s: s["dl_bits"]),
        "lte.handovers": med(lambda s: s["layers"]["handovers"]),
        "lte.disconnections": med(lambda s: s["layers"]["disconnections"]),
        "lte.harq_fail_ratio": med(
            lambda s: s["layers"]["harq_failures"]
            / max(1, s["layers"]["harq_failures"] + s["layers"]["dl_blocks"])),
        "lte.shards": med(lambda s: s["layers"]["shards"]),
        "lte.shard_threads": med(lambda s: s["layers"]["shard_threads"]),
        "core.init_s": span("core_init", "total_s"),
        "core.cqi_report.calls": span("cqi_report", "calls"),
        "core.cqi_report.total_s": span("cqi_report", "total_s"),
        "core.cqi_report.mean_us": med(
            lambda s: s["layers"]["cqi_report"]["total_s"] * 1e6
            / max(1, s["layers"]["cqi_report"]["calls"])),
        "core.prach.calls": span("prach", "calls"),
        "core.prach.total_s": span("prach", "total_s"),
        "core.hops": med(lambda s: s["layers"]["hops"]),
        "core.cells_hopping": med(lambda s: s["layers"]["cells_hopping"]),
        "sim.events": med(lambda s: s["sim_events"]),
        "sim.events_per_subframe": med(lambda s: s["sim_events"] / s["subframes"]),
        "chaos.invariant_checks": med(lambda s: s["invariant_checks"]),
        "chaos.invariant_violations": med(lambda s: s["invariant_violations"]),
        "trace.overhead_frac": traced_rep / untraced_rep - 1.0,
    }


def print_attribution(traced):
    """How the traced steady phase splits between the step's own time and
    the hooked calls inside it (medians over the traced samples)."""
    def med(span, field):
        return statistics.median(s["layers"][span][field] for s in traced)

    total = med("step", "total_s")
    parts = [("lte.step.self", med("step", "self_s")),
             ("core.cqi_report", med("cqi_report", "total_s")),
             ("core.prach", med("prach", "total_s")),
             ("lte.offer_downlink", med("offer_downlink", "total_s")),
             ("on_dl_delivered accounting", med("dl_delivered", "total_s"))]
    print(f"steady phase: lte.step total {total:.4g} s = "
          + " + ".join(f"{name} {value:.4g} s" for name, value in parts)
          + f"; self + cqi_report cover {(parts[0][1] + parts[1][1]) / total:.1%}")


def measure(driver, env, workload, seed, seconds, trace, checks, expected):
    """Samples cycle over the run's scenarios until the budget is spent.

    Untraced runs always finish one whole pass. Traced runs take an
    untraced and a traced sample of each scenario in turn (the pair gives
    trace.overhead_frac) and stop at the first pair that would overrun.
    """
    scenarios = scenario_seeds(workload, seed)
    modes = [False, True] if trace else [False]
    samples = []
    start = time.monotonic()
    deadline = start + seconds
    visit = 0
    while True:
        scenario = scenarios[visit % len(scenarios)]
        visit_start = time.monotonic()
        for traced in modes:
            args = ["--workload", workload, "--seed", str(scenario)]
            if traced:
                args.append("--trace")
            sample, _ = run_driver(driver, env, args)
            check_sample(checks, expected, sample)
            samples.append(sample)
        visit += 1
        now = time.monotonic()
        if now + (now - visit_start) > deadline and (trace or visit >= len(scenarios)):
            break
    return samples, visit


def record_digests(driver, env, workloads):
    def digest(job):
        sample, _ = run_driver(driver, env, ["--workload", job[0], "--seed", str(job[1])])
        log(f"{job[0]} scenario {job[1]}: {sample['digest']}")
        return sample["digest"]

    jobs = [(w, n) for w in workloads for n in range(1, POOL + 1)]
    with concurrent.futures.ThreadPoolExecutor(min(3, os.cpu_count() or 1)) as pool:
        digests = list(pool.map(digest, jobs))
    doc = load_digests() if os.path.exists(DIGESTS) else {}
    for w in workloads:
        doc[w] = {}
    for (w, n), d in zip(jobs, digests):
        doc[w][str(n)] = d
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def equivalence(driver, env, checks):
    result, stderr = run_driver(driver, env, ["--equivalence"], may_fail=True)
    print(stderr, end="")
    checks.attempted += result["equivalence_attempted"]
    checks.failed += result["equivalence_failed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.record_digests or args.selftest or args.workload):
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    env, cleared = pinned_env()
    for knob in cleared:
        print(f"cleared env knob {knob}={os.environ[knob]}")
    driver = build_driver()
    if driver is None:
        return 1

    if args.record_digests:
        record_digests(driver, env, [args.workload] if args.workload else list(WORKLOADS))
        return 0

    checks = Checks()
    equivalence(driver, env, checks)
    if args.selftest:
        # The driver itself must refuse an ambient knob.
        refused = subprocess.run([driver, "--workload", "metro_lte", "--seed", "1"],
                                 env=dict(env, CELLFI_SIMD_DISABLE="1"),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        checks.check(refused.returncode != 0, "driver ran with CELLFI_SIMD_DISABLE set")
        print(f"selftest: {checks.attempted - checks.failed}/{checks.attempted} checks passed")
        return 0 if checks.failed == 0 else 1

    expected = load_digests()[args.workload]
    samples, visits = measure(driver, env, args.workload, args.seed, args.seconds,
                              args.trace == 1, checks, expected)
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]

    print(f"workload {args.workload} seed {args.seed}: scenarios "
          f"{scenario_seeds(args.workload, args.seed)}, {visits} visit(s), "
          f"{len(untraced)} untraced + {len(traced)} traced fresh-process samples")
    print(f"simd_kernel {samples[0]['simd_kernel']}")
    e2e, steps = end_to_end(untraced)
    for name, unit in END_TO_END:
        extra = (f"  (median over {len(untraced)} samples of {steps} subframes each)"
                 if name.startswith("subframe_") else "")
        print(f"{name:<28} {e2e[name]:.6g} {unit}{extra}")
    failed_frac = checks.failed / checks.attempted
    print(f"{'failed_frac':<28} {failed_frac:.6g} ratio  "
          f"({checks.failed} of {checks.attempted} checks)")

    if args.trace:
        layer = per_layer(traced, untraced)
        for name, unit in PER_LAYER:
            print(f"{name:<28} {layer[name]:.6g} {unit}")
        print_attribution(traced)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
