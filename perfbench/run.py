"""Benchmark of markoff-padic: one workload per run, checked and timed.

    python3 perfbench/run.py --workload census-lift --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client runs the workload's job list (see
``workloads.py``) pass after pass, in this single process, while another
pass still fits in ``--seconds``; at least one pass always runs.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time from
interpreter spawn to ``import markoff_padic.cli`` done, over fresh
interpreters), ``wall_s`` (median pass time), ``slowest_job_s`` (median time
of the workload's largest job) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer spans and
counters of ``tracer.py`` plus the tracing overhead.  Every job is checked
against its verdict and its golden digest; a failed job counts in
``failed``.  ``--workload all`` runs every workload in its own process and
prints one table.  ``--record-goldens`` rewrites ``goldens.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, run_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"

# Above the census-lift peak (190 MB computed for census --p 13 --k 3, about
# 480 MB resident), so a job that needs more is refused and counted failed.
MAX_MEM = "512M"
# timed spawns before and again after the passes; host speed drifts over
# tens of seconds, so the two halves see different host states
SETUP_SPAWNS = 5

# metric name -> unit, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _prepare_program():
    """Import markoff_padic from this checkout's src/ and nowhere else."""
    if not (SRC / "markoff_padic" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC / 'markoff_padic'}")
    os.environ["MARKOFF_PADIC_MAX_MEM"] = MAX_MEM
    sys.path.insert(0, str(SRC))
    import markoff_padic.cli

    if Path(markoff_padic.cli.__file__).resolve().parent != SRC / "markoff_padic":
        raise SetupError(f"imported markoff_padic from {markoff_padic.cli.__file__}")


def _steal_seconds() -> float | None:
    """Host steal time of all CPUs, from /proc/stat (read-only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _environment() -> dict:
    import platform

    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "max_mem": MAX_MEM,
    }


def measure_setup(warm: bool) -> list[float]:
    """Seconds from spawning an interpreter to `import markoff_padic.cli` done.

    Unless ``warm``, one untimed spawn goes first, so every timed one finds
    compiled bytecode, as an installed package would, whatever the caller's
    PYTHONDONTWRITEBYTECODE.
    """
    code = "import time, markoff_padic.cli as c; print(time.monotonic_ns(), c.__file__)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for i in range(SETUP_SPAWNS + (not warm)):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SetupError(f"import failed: {proc.stderr.strip()}")
        done, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "markoff_padic":
            raise SetupError(f"spawned interpreter imported {path}")
        if warm or i:
            times.append((int(done) - t0) / 1e9)
    return times


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def run_pass(jobs, seed: int, goldens: dict) -> tuple[float, list]:
    """One pass over the job list; returns its wall time and job outcomes."""
    outcomes = []
    t0 = time.perf_counter()
    for job in jobs:
        golden = goldens.get(job.name) if (seed == DEFAULT_SEED or not job.seeded) else None
        outcomes.append((job, run_job(job, seed, golden)))
    return time.perf_counter() - t0, outcomes


def _fits(started: float, seconds: float, next_cost: float) -> bool:
    return time.perf_counter() - started + next_cost <= seconds


def run_untraced(name: str, seed: int, seconds: float, goldens: dict) -> dict:
    jobs, slowest = WORKLOADS[name]
    setup = measure_setup(warm=False)
    walls, slow, outcomes = [], [], []
    started = time.perf_counter()
    while True:
        wall, done = run_pass(jobs, seed, goldens)
        walls.append(wall)
        slow.append(next(o.seconds for job, o in done if job.name == slowest))
        outcomes += done
        if not _fits(started, seconds, wall):
            break
    # time left that holds no whole pass goes to more samples of the slowest job
    slowest_job = [job for job in jobs if job.name == slowest]
    while _fits(started, seconds, statistics.median(slow)):
        _, done = run_pass(slowest_job, seed, goldens)
        slow.append(done[0][1].seconds)
        outcomes += done
    setup += measure_setup(warm=True)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "slowest_job_s": statistics.median(slow),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} spawns",
        "wall_s": f"median of {len(walls)} passes",
        "slowest_job_s": f"median of {len(slow)} runs of {slowest}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return {"metrics": metrics, "notes": notes, "outcomes": outcomes}


def run_traced(name: str, seed: int, seconds: float, goldens: dict) -> dict:
    """Pairs of an untraced and a traced pass; report the traced layers.

    The overhead is the median over pairs of traced over untraced wall
    time; the two passes of a pair run back to back, in alternating order.
    """
    jobs, _ = WORKLOADS[name]
    pairs, outcomes = [], []
    started = time.perf_counter()
    while True:
        walls = {}
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            tracer = Tracer().install() if traced else None
            try:
                walls[traced], done = run_pass(jobs, seed, goldens)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    last = tracer
            outcomes += done
        pairs.append((walls[False], walls[True], last.counts(), last.timings()))
        if not _fits(started, seconds, walls[False] + walls[True]):
            break

    counts = [c for _, _, c, _ in pairs]
    metrics = {key: 0.0 for key in PER_LAYER}
    metrics.update(counts[0])
    for key in pairs[0][3]:
        metrics[key] = statistics.median(t[key] for _, _, _, t in pairs)
    metrics["trace.overhead"] = statistics.median(t / u for u, t, _, _ in pairs)
    return {
        "metrics": metrics,
        "outcomes": outcomes,
        "repeatable": all(c == counts[0] for c in counts),
        "traced_wall": statistics.median(t for _, t, _, _ in pairs),
        "passes": len(pairs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _print_failures(outcomes) -> None:
    for job, outcome in outcomes:
        if not outcome.ok:
            print(f"FAIL {job.name}: {outcome.detail}")


def _print_untraced(name, seed, res, attempted, failed) -> None:
    print(f"{name} seed={seed} trace=0")
    for key, value in res["metrics"].items():
        print(f"  {key:<15}{value:>12.4f} {END_TO_END[key]:<4} {res['notes'][key]}")
    print(f"  {'fail_rate':<15}{failed / attempted:>12.4f} ratio {failed} of {attempted} jobs")


def _print_traced(name, seed, res, attempted, failed) -> None:
    m = res["metrics"]
    print(f"{name} seed={seed} trace=1: {res['passes']} traced passes, "
          f"counts repeat exactly: {res['repeatable']}, "
          f"fail_rate {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    print(f"  traced wall {res['traced_wall']:.4f} s, overhead x{m['trace.overhead']:.3f}; "
          f"census.bytes_est {m['census.bytes_est']:.1f} MB (computed) beside "
          f"peak_rss_mb {res['peak_rss_mb']:.1f} MB")
    print("  self time share of the traced wall (every step blocks the result):")
    spans = sorted((k for k, unit in PER_LAYER.items() if unit == "s"), key=lambda k: -m[k])
    for key in spans:
        if m[key]:
            print(f"    {key:<34}{m[key]:>10.4f} s {100 * m[key] / res['traced_wall']:6.1f} %")
    outside = res["traced_wall"] - sum(m[k] for k in spans)
    print(f"    {'(outside every span)':<34}{outside:>10.4f} s "
          f"{100 * outside / res['traced_wall']:6.1f} %")
    for key, unit in PER_LAYER.items():
        if unit != "s":
            value = f"{m[key]:,}" if isinstance(m[key], int) else f"{m[key]:.4f}"
            print(f"  {key:<36}{value:>16} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    steal_before = _steal_seconds()
    goldens = load_goldens().get(name, {})
    runner = run_traced if trace else run_untraced
    res = runner(name, seed, seconds, goldens)
    units = PER_LAYER if trace else END_TO_END
    if set(res["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(res['metrics'])} differ from BENCHMARK.json")
    steal_after = _steal_seconds()
    outcomes = res["outcomes"]
    attempted = len(outcomes)
    failed = sum(not o.ok for _, o in outcomes)
    env = _environment()
    env["steal_s_before"], env["steal_s_after"] = steal_before, steal_after
    print("env " + json.dumps(env))
    _print_failures(outcomes)
    (_print_traced if trace else _print_untraced)(name, seed, res, attempted, failed)
    correct = failed == 0 and res.get("repeatable", True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one summary table."""
    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if not proc.stdout:
            return status
        rows[name] = json.loads(proc.stdout.splitlines()[-1])
    if not args.trace:
        print(f"{'workload':<15}" + "".join(f"{k:>15}" for k in END_TO_END) + f"{'fail_rate':>15}")
        for name, res in rows.items():
            cells = "".join(f"{res['metrics'][k]['value']:>12.4f} {END_TO_END[k]:<2}"
                            for k in END_TO_END)
            print(f"{name:<15}{cells}{res['failed'] / res['attempted']:>15.4f}")
    print(json.dumps(rows))
    return status


def record_goldens() -> int:
    """Write goldens.json from one pass of every workload at the default seed."""
    goldens = {}
    for name, (jobs, _) in WORKLOADS.items():
        _, done = run_pass(jobs, DEFAULT_SEED, {})
        _print_failures(done)
        if not all(o.ok for _, o in done):
            return 1
        goldens[name] = {job.name: o.digest for job, o in done}
    GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    try:
        _prepare_program()
        if args.record_goldens:
            return record_goldens()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
