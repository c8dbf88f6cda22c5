"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Runs every workload twice under the tracer (about two minutes on a
2-core Xeon), so it is not part of the project's own test suite.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._prepare_program()

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, mahler_flows  # noqa: E402

# per-layer metric -> workloads on which it must be nonzero
LAYER_MAP = {
    "padic.ring_ops": ("certify-sweep", "lemmas"),
    "padic.alloc": ("certify-sweep", "lemmas"),
    "padic.newton_solve.calls": ("certify-sweep",),
    "padic.newton_solve.s": ("certify-sweep",),
    "padic.sqrt.calls": ("certify-sweep",),
    "chebyshev.family.calls": ("lemmas",),
    "chebyshev.family.s": ("lemmas",),
    "chebyshev.companion_power.calls": ("lemmas", "certify-sweep"),
    "chebyshev.companion_power.s": ("lemmas", "certify-sweep"),
    "chebyshev.estimates.s": ("lemmas",),
    "chebyshev.fixed_point_Tp.calls": ("lemmas", "certify-sweep"),
    "surface.apply_word.calls": ("certify-sweep",),
    "surface.apply_word.s": ("certify-sweep",),
    "surface.letters_applied": ("certify-sweep",),
    "surface.word_letters_built": ("certify-sweep",),
    "surface.lift_point.calls": ("certify-sweep",),
    "surface.lift_point.s": ("certify-sweep",),
    "flow.point_map.s": ("certify-sweep",),
    "flow.minimality_det.s": ("certify-sweep",),
    "flow.mahler_flow.calls": ("lemmas",),
    "flow.mahler_flow.s": ("lemmas",),
    "polydisk.apply_word_uv.calls": ("certify-sweep",),
    "polydisk.apply_word_uv.s": ("certify-sweep",),
    "polydisk.xi.calls": ("certify-sweep",),
    "polydisk.recentre.s": ("certify-sweep",),
    "polydisk.verify.s": ("certify-sweep",),
    "census.brute.s": ("census-lift", "census-scan"),
    "census.lift.s": ("census-lift", "census-scan"),
    "census.points": ("census-lift", "census-scan"),
    "census.points_per_s": ("census-lift", "census-scan"),
    "census.bytes_est": ("census-lift", "census-scan"),
    "census.bfs.s": ("census-lift", "census-scan"),
    "census.orbits": ("census-lift", "census-scan"),
    "census.catalog.s": ("census-scan",),
    "census.brute.scaling_eff": ("census-scan",),
    "certify.base_point.s": ("certify-sweep",),
    "certify.strict_move.s": ("certify-sweep",),
    "certify.strict_move.candidates": ("certify-sweep",),
    "certify.residual_transitivity.s": ("certify-sweep",),
    "certify.minimal_subdisk.s": ("certify-sweep",),
    "certify.xd.s": ("certify-sweep",),
    # a failure counter: zero is the correct value on every workload
    "certify.stage_failures": (),
    # a ratio of two passes, checked through the traced runner below
    "trace.overhead": (),
}


def _traced_pass(jobs):
    tracer = Tracer().install()
    try:
        _, done = run.run_pass(jobs, DEFAULT_SEED, {})
    finally:
        tracer.uninstall()
    assert all(o.ok for _, o in done), [(j.name, o.detail) for j, o in done if not o.ok]
    return tracer


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced passes of every workload: (counts, counts, timings)."""
    out = {}
    for name, (jobs, _) in WORKLOADS.items():
        first, second = _traced_pass(jobs), _traced_pass(jobs)
        out[name] = (first.counts(), second.counts(), first.timings())
    return out


def test_layer_map_covers_every_declared_metric():
    assert set(LAYER_MAP) == set(run.PER_LAYER)
    assert {w for ws in LAYER_MAP.values() for w in ws} <= set(WORKLOADS)
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)


def test_counts_repeat_exactly(traced_twice):
    for name, (first, second, _) in traced_twice.items():
        assert first == second, name


def test_each_layer_metric_is_nonzero_where_mapped(traced_twice):
    for metric, workloads in LAYER_MAP.items():
        for name in workloads:
            counts, _, timings = traced_twice[name]
            assert {**counts, **timings}.get(metric, 0) > 0, (metric, name)


def test_traced_runner_reports_every_layer_and_overhead():
    res = run.run_traced("lemmas", DEFAULT_SEED, 1, run.load_goldens()["lemmas"])
    assert res["repeatable"] and all(o.ok for _, o in res["outcomes"])
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert res["metrics"]["trace.overhead"] > 0


def test_traced_runner_compares_counts_over_several_pairs(monkeypatch):
    """Three pairs, so both pass orders run and the counts are compared."""
    jobs = [j for j in WORKLOADS["certify-sweep"][0] if j.name.startswith("xd-check")]
    jobs += [j for j in WORKLOADS["lemmas"][0] if j.name == "power sums"]
    monkeypatch.setitem(WORKLOADS, "two-jobs", (jobs, jobs[0].name))
    more = iter([True, True, False])
    monkeypatch.setattr(run, "_fits", lambda *args: next(more))
    res = run.run_traced("two-jobs", DEFAULT_SEED, 1, {})
    assert res["passes"] == 3 and len(res["outcomes"]) == 6 * len(jobs)
    assert res["repeatable"] and all(o.ok for _, o in res["outcomes"])
    assert res["metrics"]["padic.ring_ops"] > 0 and res["metrics"]["surface.lift_point.calls"] > 0


def test_tracer_rebinds_copies_in_any_package_module(monkeypatch):
    """A module of the package that imports a traced function gets the wrapper."""
    from markoff_padic import surface

    original = surface.apply_word
    probe = types.ModuleType("markoff_padic._probe")
    probe.apply_word = original
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    tracer = Tracer().install()
    try:
        assert probe.apply_word is surface.apply_word is not original
        assert probe.apply_word.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert probe.apply_word is surface.apply_word is original


def test_letters_applied_for_certify_p23():
    """The tracer counts every generator application, checked by a profiler."""
    job = next(j for j in WORKLOADS["certify-sweep"][0] if j.name == "certify --k 3 --p 23")
    from markoff_padic import surface

    target = surface.apply_generator.__code__
    profiled = 0

    def profile(frame, event, arg):
        nonlocal profiled
        if event == "call" and frame.f_code is target:
            profiled += 1

    sys.setprofile(profile)
    try:
        _, done = run.run_pass([job], DEFAULT_SEED, {})
    finally:
        sys.setprofile(None)
    assert done[0][1].ok
    assert _traced_pass([job]).counts()["surface.letters_applied"] == profiled > 0


def test_tampered_golden_raises_fail_rate(monkeypatch):
    goldens = run.load_goldens()
    goldens["lemmas"]["power sums"] = "0" * 64
    monkeypatch.setattr(run, "load_goldens", lambda: goldens)
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.run_workload("lemmas", DEFAULT_SEED, 1, trace=False)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert status != 0 and result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(WORKLOADS["lemmas"][0])
    assert "FAIL power sums: report differs from golden" in out.getvalue()


def test_seed_picks_inputs_reproducibly():
    assert mahler_flows(1) == mahler_flows(1)
    assert mahler_flows(1)[0] != mahler_flows(2)[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemmas", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
