"""Tests of the benchmark itself.  They are kept out of the repository's own
test run (the file name does not match ``test_*.py``); run them with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, span_totals  # noqa: E402
from workloads import UPSET_COUNTS, WORKLOADS, NfVerify, from_medlog, to_medlog  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_medlog(run.SRC)


def inputs_of(wl, seed):
    return [repr(wl.task(seed, i)) for i in range(wl.prefix)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_inputs(name):
    wl = WORKLOADS[name]
    assert inputs_of(wl, 7) == inputs_of(wl, 7)
    assert inputs_of(wl, 7) != inputs_of(wl, 8)


def test_input_generation_does_not_import_medlog():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads\n"
            "for wl in workloads.WORKLOADS.values():\n"
            "    [wl.task(3, i) for i in range(wl.prefix)]\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'medlog'))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_upset_counts():
    for n, expected in UPSET_COUNTS.items():
        worlds = range(1, 1 << n)
        closed = 0
        for bits in range(1 << len(worlds)):
            s = {w for w in worlds if bits >> (w - 1) & 1}
            closed += gen.up_closure(n, s) == s
        assert closed == expected


def test_render_is_medlogs_render(lib):
    rng = random.Random(5)
    for _ in range(300):
        f = gen.random_formula(rng, ["p", "q", "r"], 5)
        g = to_medlog(lib, f)
        assert gen.render(f) == lib.formula.render(g)
        assert lib.formula.parse(gen.render(f)) == g


def test_rank_is_medlogs_rank(lib):
    rng = random.Random(6)
    for _ in range(100):
        f = gen.random_finite_rank(rng, ["p", "q"], skeleton_depth=3, body_depth=2,
                                   ranks=range(1, 65), sizes=range(1, 200))
        assert gen.rank(f, 64) == lib.kpform.kp_rank(to_medlog(lib, f)).value


def test_oracle_accepts_witnesses_and_rejects_tampered_ones(lib):
    for text in ("p | ~p", "~~p -> p", "~p | ~~p", "(p -> q) | (q -> p)"):
        wit = lib.medvedev.refute(lib.formula.parse(text), 3)
        assert wit is not None
        obj = wit.to_obj()
        ast = from_medlog(lib.formula.parse(text))
        assert oracle.witness_problem(obj, ast) is None
        # each formula is a classical tautology, so it holds at a maximal world
        assert oracle.witness_problem(dict(obj, world=[1]), ast) is not None
        assert oracle.witness_problem(dict(obj, formula="p"), ast) is not None


def bindings(lib):
    mods = [lib.package] + [getattr(lib, m) for m in run.LAYERS]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_tracer_wraps_where_bound_and_restores(lib):
    before = bindings(lib)
    assert not any(hasattr(v, "perfbench_span") for v in before.values())
    wl = WORKLOADS["nf-verify"]
    x = wl.build(lib, wl.task(1, 0))
    tracer = Tracer(lib)
    tracer.install()
    try:
        assert lib.kpform.valid_on.perfbench_span == "medvedev.valid_on"
        assert lib.kpform.valid_on is lib.medvedev.valid_on is lib.package.valid_on
        assert lib.alpha.u_valuation.perfbench_span == "alpha.u_valuation"
        assert not hasattr(lib.medvedev.down_closure, "perfbench_span")
        tracer.task_span(wl.run, lib, x)
    finally:
        tracer.remove()
    assert bindings(lib) == before
    assert tracer.edges["task", "kpform.kp_normalize"][0] == 1
    assert tracer.edges["kpform.verify_normal_form", "medvedev.valid_on"][0] == 3
    totals = span_totals(tracer.edges)
    assert totals["medvedev.run_program"][0] == tracer.counts["medvedev.valuations_checked"]
    assert all(0 <= own <= total for _, total, own in totals.values())


def test_wrappers_only_in_traced_passes(lib):
    class Probe(NfVerify):
        prefix = 2
        seen: list = []

        def run(self, lib, f):
            self.seen.append(hasattr(lib.medvedev.valid_on, "perfbench_span"))
            return super().run(lib, f)

    wl = Probe()
    tasks = [wl.task(1, i) for i in range(wl.prefix)]
    inputs = [wl.build(lib, t) for t in tasks]
    tally = run.closed_loop(wl, lib, 1, tasks, inputs, 0)
    assert tally.failed == 0 and wl.seen == [False, False]
    wl.seen.clear()
    passes = run.traced_passes(wl, lib, tasks, inputs, 0)
    assert [traced for traced, _, _ in passes] == [False, True]
    assert wl.seen == [False, False, True, True]
    assert run.drift(passes, run.per_layer(passes)[0]) == []
    assert not hasattr(lib.medvedev.valid_on, "perfbench_span")


def bench(*args, root=HERE.parent):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                         capture_output=True, text=True, timeout=170, check=False)
    return out.returncode, out.stdout.splitlines()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_checks_and_trace_matches(name):
    results, digests = {}, {}
    for trace in ("0", "1"):
        rc, lines = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace)
        assert rc == 0
        results[trace] = json.loads(lines[-1])
        digests[trace] = [ln for ln in lines if ln.startswith("prefix digest")]
    for trace, units in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
        res = results[trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert digests["0"] == digests["1"] and len(digests["0"]) == 1


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    rc, lines = bench("--workload", "nf-verify", "--seed", "1", "--seconds", "1",
                      root=tmp_path)
    assert rc != 0 and not any(ln.startswith("{") for ln in lines)
