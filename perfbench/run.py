"""Benchmark for medlog: time to a checked verdict, end to end and per layer.

    python3 perfbench/run.py --workload nf-verify --seed 1 --seconds 20 --trace 0

One process, one caller, one task after another (a closed loop).  Every run
first completes the workload's prefix (its first tasks, fixed by the seed),
then keeps drawing new tasks until ``--seconds`` have passed.  Each task's
output is checked, and a digest of the prefix's outputs is printed so that two
runs, or two commits, can be compared byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the prefix
repeatedly, alternating passes with and without spans around medlog's public
functions, and reports the per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload, each in a child process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYERS, Tracer, span_totals
from workloads import WORKLOADS, Outcome

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 7

END_TO_END = {
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics, each a function's span or a work count
SPAN_METRICS = [
    "medvedev.run_program.calls", "medvedev.run_program.self_ms",
    "medvedev.valid_on.calls", "medvedev.valid_on.self_ms",
    "medvedev.sample_valuation.calls", "medvedev.sample_valuation.self_ms",
    "medvedev.refute.calls", "medvedev.refute.self_ms",
    "medvedev.compile_formula.calls", "medvedev.compile_formula.self_ms",
    "medvedev.truth_set.calls", "medvedev.truth_set.self_ms",
    "formula.apply_subst.calls", "formula.apply_subst.self_ms",
    "formula.parse.calls", "formula.parse.self_ms", "formula.render.self_ms",
    "ipc.ipc_provable.calls", "ipc.ipc_provable.self_ms",
    "cli.main.calls", "cli.main.self_ms",
    "kpform.kp_rank.self_ms", "kpform.kp_normalize.calls", "kpform.kp_normalize.self_ms",
    "kpform.verify_normal_form.self_ms",
    "alpha.u_valuation.self_ms", "alpha.universal_subst.calls",
    "alpha.universal_subst.self_ms", "alpha.verify_lemma.self_ms",
    "structural.alpha_pmorphism.self_ms", "structural.check_pmorphism.self_ms",
    "structural.check_alpha_transfer.self_ms", "structural.transfer_check.self_ms",
    "randgen.random_formula.self_ms",
]
COUNT_METRICS = [
    "medvedev.valid_on.exhaustive_calls", "medvedev.valid_on.sampled_calls",
    "medvedev.valuations_checked", "medvedev.valuation_worlds", "medvedev.prog_instrs",
    "formula.subst_image_nodes", "kpform.bodies", "ipc.budget_exhausted",
    "cli.exit_0", "cli.exit_1", "cli.exit_2", "cli.exit_3",
]
PER_LAYER = {
    **{m: ("ms" if m.endswith("_ms") else "count") for m in SPAN_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "medvedev.valuation_worlds_per_s": "1/s",
    "trace.overhead_frac": "fraction",
}


def load_medlog(src: Path) -> SimpleNamespace:
    """Import a private copy of medlog from ``src``.

    medlog modules already in ``sys.modules`` are set aside and put back
    afterwards, so each call runs medlog's module code again (what a fresh
    process pays) and no other importer shares the copy returned.
    """

    def ours(name: str) -> bool:
        return name == "medlog" or name.startswith("medlog.")

    saved = {k: v for k, v in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("medlog")
        mods = {m: importlib.import_module(f"medlog.{m}") for m in LAYERS + ("errors",)}
    finally:
        sys.path.remove(str(src))
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
    if Path(pkg.__file__).resolve().parent != (src / "medlog").resolve():
        raise ImportError(f"medlog came from {pkg.__file__}, not {src}")
    return SimpleNamespace(package=pkg, **mods)


def set_up(wl, seed: int):
    """Import medlog, then generate and build the prefix's inputs."""
    t0 = time.perf_counter()
    lib = load_medlog(SRC)
    tasks = [wl.task(seed, i) for i in range(wl.prefix)]
    inputs = [wl.build(lib, t) for t in tasks]
    return time.perf_counter() - t0, lib, tasks, inputs


def one_task(wl, lib, task, inputs, tracer=None) -> tuple[float, Outcome]:
    """Time one task; an exception escaping medlog fails it."""
    t0 = time.perf_counter()
    try:
        out = wl.run(lib, inputs) if tracer is None else tracer.task_span(wl.run, lib, inputs)
    except Exception:  # the loop goes on; the traceback is the task's record
        dt = time.perf_counter() - t0
        tb = traceback.format_exc(limit=4)
        return dt, Outcome(False, False, "raised: " + tb.splitlines()[-1], problem=tb)
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(task, out)
    except Exception:  # output the checks cannot even read
        tb = traceback.format_exc(limit=4)
        return dt, Outcome(False, False, "unreadable: " + tb.splitlines()[-1], problem=tb)


class Tally:
    """Outcomes of a sequence of tasks."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.inconclusive = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.counts: Counter = Counter()

    def add(self, dt: float, outcome: Outcome, in_prefix: bool) -> None:
        self.times.append(dt)
        self.failed += not outcome.ok
        self.inconclusive += outcome.inconclusive
        if not outcome.ok and len(self.problems) < 5:
            self.problems.append(f"task {len(self.times) - 1}: {outcome.problem}")
        if in_prefix:
            self.digest.update(outcome.record.encode() + b"\n")
            self.counts.update(outcome.counts)


def percentile(sorted_times: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(pct / 100 * len(sorted_times)))
    return sorted_times[k - 1]


def closed_loop(wl, lib, seed, tasks, inputs, seconds) -> Tally:
    """Tasks 0, 1, 2, ... until the prefix is done and ``seconds`` have passed."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.prefix or time.perf_counter() < deadline:
        if i < len(tasks):
            task, x = tasks[i], inputs[i]
        else:  # drawn here, outside the timed call
            task = wl.task(seed, i)
            x = wl.build(lib, task)
        tally.add(*one_task(wl, lib, task, x), in_prefix=i < wl.prefix)
        i += 1
    return tally


def end_to_end(wl, tally: Tally, setup_times: list[float]) -> tuple[dict, list[str]]:
    times = sorted(tally.times)
    tail = percentile(times, wl.tail_pct)
    beyond = sum(t > tail for t in times)
    values = {
        "task_p50_ms": statistics.median(times) * 1e3,
        "task_tail_ms": tail * 1e3,
        "tasks_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"task_tail_ms is p{wl.tail_pct} of {len(times)} tasks, {beyond} beyond it"
             + (" (fewer than ten)" if beyond < 10 else ""),
             f"setup_s is the median of {len(setup_times)} set-ups"]
    return values, lines


def traced_passes(wl, lib, tasks, inputs, seconds):
    """Run the prefix in pairs of passes, one traced and one not, alternating
    which goes first, until ``seconds`` have passed."""
    tracer = Tracer(lib)
    passes = []
    deadline = time.perf_counter() + seconds
    p = 0
    while p < 2 or p % 2 or time.perf_counter() < deadline:
        traced = p % 4 in (1, 2)
        tally = Tally()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for task, x in zip(tasks, inputs):
                tally.add(*one_task(wl, lib, task, x, tracer if traced else None),
                          in_prefix=True)
        finally:
            tracer.remove()
        snapshot = None
        if traced:
            snapshot = ({e: list(rec) for e, rec in tracer.edges.items()},
                        tracer.counts.copy())
        passes.append((traced, tally, snapshot))
        p += 1
    return passes


def per_layer(passes) -> tuple[dict, list[str]]:
    snaps = [s for traced, _, s in passes if traced]
    edges, counts = snaps[0]
    totals = [span_totals(e) for e, _ in snaps]
    empty = [0, 0, 0]

    def median_ms(key: str) -> float:
        return statistics.median(t.get(key, empty)[2] for t in totals) / 1e6

    values = {}
    for m in SPAN_METRICS:
        key, kind = m.rsplit(".", 1)
        values[m] = totals[0].get(key, empty)[0] if kind == "calls" else median_ms(key)
    for m in COUNT_METRICS:
        values[m] = counts[m]
    values["ipc.budget_exhausted"] = counts["ipc.ipc_provable.raised.SearchBudgetError"]
    sweep_s = [t["medvedev.valid_on"][1] / 1e9 for t in totals if "medvedev.valid_on" in t]
    values["medvedev.valuation_worlds_per_s"] = (
        counts["medvedev.valuation_worlds"] / statistics.median(sweep_s) if sweep_s else 0.0)
    traced_s = sum(sum(t.times) for traced, t, _ in passes if traced)
    plain_s = sum(sum(t.times) for traced, t, _ in passes if not traced)
    values["trace.overhead_frac"] = traced_s / plain_s - 1

    lines = ["call graph of the prefix (parent -> child: calls, total ms, self ms; "
             "times are medians over traced passes):"]
    edge_ms = {e: [statistics.median(s[0][e][i] for s in snaps) / 1e6 for i in (1, 2)]
               for e in edges}
    for (parent, child), (total, own) in sorted(edge_ms.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {parent or '-'} -> {child}: {edges[parent, child][0]} calls, "
                     f"{total:.3f} ms, {own:.3f} ms")
    return values, lines


def drift(passes, layer_values: dict) -> list[str]:
    """Outputs and work counts must repeat exactly from pass to pass, and the
    counts read off the outputs must match the tracer's."""
    problems = []
    digests = {t.digest.hexdigest() for _, t, _ in passes}
    if len(digests) != 1:
        problems.append(f"prefix outputs differ between passes: {sorted(digests)}")
    calls = [({e: rec[0] for e, rec in snap[0].items()}, snap[1])
             for traced, _, snap in passes if traced]
    if any(c != calls[0] for c in calls):
        problems.append("span or work counts differ between traced passes")
    for name, value in passes[0][1].counts.items():
        if name in layer_values and layer_values[name] != value:
            problems.append(f"{name}: {value} in the outputs, {layer_values[name]} traced")
    return problems


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    if not (SRC / "medlog" / "__init__.py").is_file():
        print(f"error: no medlog sources under {SRC}", file=sys.stderr)
        return 2
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from the same heap, not from its predecessor's garbage
        dt, lib, tasks, inputs = set_up(wl, args.seed)
        setup_times.append(dt)
    gc.collect()

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds} s, closed loop, "
          f"one caller; prefix of {wl.prefix} tasks")
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, load average "
          + " ".join(f"{x:.2f}" for x in os.getloadavg()))
    if args.trace:
        passes = traced_passes(wl, lib, tasks, inputs, args.seconds)
        tallies = [t for _, t, _ in passes]
        metrics, lines = per_layer(passes)
        units, problems = PER_LAYER, drift(passes, metrics)
        lines.insert(0, f"{len(passes)} passes over the prefix, half of them traced")
    else:
        tallies = [closed_loop(wl, lib, args.seed, tasks, inputs, args.seconds)]
        metrics, lines = end_to_end(wl, tallies[0], setup_times)
        units, problems = END_TO_END, []
    attempted = sum(len(t.times) for t in tallies)
    failed = sum(t.failed for t in tallies)
    inconclusive = sum(t.inconclusive for t in tallies)
    problems += [p for t in tallies for p in t.problems][:5]

    for name, value in metrics.items():
        print(f"  {name:40s} {fmt(value):>14s} {units[name]}")
    print(f"  {'failed_frac':40s} {fmt(failed / attempted):>14s} fraction, "
          f"{failed} of {attempted} tasks")
    print(f"  {'inconclusive_frac':40s} {fmt(inconclusive / attempted):>14s} fraction, "
          f"{inconclusive} of {attempted} tasks")
    print(f"prefix digest sha256:{tallies[0].digest.hexdigest()}")
    print("prefix work counts: "
          + ", ".join(f"{k}={v}" for k, v in sorted(tallies[0].counts.items())))
    for line in lines:
        print(line)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, so that peak memory and
    set-up are per workload; the result's metrics are prefixed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, v in child["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
