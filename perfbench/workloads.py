"""The four workloads: ordered job lists with their correctness checks.

A job is one CLI invocation through ``markoff_padic.cli.main`` or one
library-level check.  Every job is judged on three things: it returns
without an exception and (for the CLI) with exit status 0; its verdict
holds; and the digest of its output matches the golden recorded for it.
Outputs that depend on the seed only have goldens at ``DEFAULT_SEED``;
at other seeds their verdicts are checked alone.

Sizes (p, k, n ranges) are fixed.  The seed only picks sampled inputs:
the ``u`` samples of the companion estimates, the symmetry indices of the
Chebyshev check and the flow's base point.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...] = ()  # CLI arguments; empty for a library job
    verdict: Callable[[dict], bool] = lambda result: True
    library: Callable[[int], tuple[dict, bool]] | None = None
    seeded: bool = False  # output varies with the seed


@dataclass
class Outcome:
    ok: bool
    seconds: float
    digest: str | None
    detail: str = ""


def _cli(text: str, verdict=lambda result: True) -> Job:
    return Job(name=text, argv=tuple(text.split()), verdict=verdict)


def digest_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(job: Job, seed: int, golden: str | None) -> Outcome:
    """Run one job, timing only the program call, then check its output."""
    from markoff_padic import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        if job.library is not None:
            result, verdict_ok = job.library(seed)
            seconds = time.perf_counter() - t0
            data = json.dumps(result, sort_keys=True).encode()
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(job.argv))
            seconds = time.perf_counter() - t0
            data = out.getvalue().encode()
            if status != 0:
                return Outcome(False, seconds, None, f"exit {status}: {err.getvalue().strip()}")
            verdict_ok = job.verdict(json.loads(data)["result"])
    except SystemExit as exc:
        return Outcome(False, time.perf_counter() - t0, None, f"exit {exc.code}: {err.getvalue().strip()}")
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return Outcome(False, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    digest = digest_of(data)
    if not verdict_ok:
        return Outcome(False, seconds, digest, "wrong verdict")
    if golden is not None and digest != golden:
        return Outcome(False, seconds, digest, "report differs from golden")
    return Outcome(True, seconds, digest)


# -- library jobs ---------------------------------------------------------


def chebyshev_families(seed: int) -> tuple[dict, bool]:
    """T_n and U_n for n in [-1, 200] at K = 2: recurrences and symmetries."""
    from markoff_padic import chebyshev

    rng = random.Random(seed)
    out, ok = {}, True
    for p in (5, 7, 11, 13):
        ts = [chebyshev.chebyshev_T(n, p, 2) for n in range(-1, 201)]
        us = [chebyshev.chebyshev_U(n, p, 2) for n in range(-1, 201)]
        for n in range(2, 201):
            ok = ok and ts[n + 1] == ts[n].shift_x() - ts[n - 1]
            ok = ok and us[n + 1] == us[n].shift_x() - us[n - 1]
        for n in rng.sample(range(201), 20):
            ok = ok and chebyshev.chebyshev_T(-n, p, 2) == ts[n + 1]
            ok = ok and chebyshev.chebyshev_U(-n - 2, p, 2) == us[n + 1] * (-1)
        out[str(p)] = digest_of(repr([t.coeffs for t in ts + us]).encode())
    return out, ok


def power_sums(seed: int) -> tuple[dict, bool]:
    from markoff_padic import chebyshev

    reps = {str(p): chebyshev.verify_power_sum_identity(p, 3) for p in (5, 7, 11, 13)}
    return reps, all(r["passed"] for r in reps.values())


def companion_estimates(seed: int) -> tuple[dict, bool]:
    """The four near-identity estimates at K = 3 over 10 generic and 10 parabolic bases."""
    from markoff_padic import chebyshev
    from markoff_padic.padic import PadicInt

    reps = {}
    for p in (5, 7, 11, 13):
        rng = random.Random(1000 * seed + p)
        us = list(range(p)) + [rng.randrange(p * p) for _ in range(100)]
        generic = [r for r in range(p) if r not in (2, p - 2)]
        bases = [generic[i % len(generic)] + p * (i // len(generic)) for i in range(10)]
        bases += [(2, p - 2)[i % 2] + p * (i // 2) for i in range(10)]
        reps[str(p)] = [
            chebyshev.verify_companion_estimates(PadicInt(p, 3, x0), us) for x0 in bases
        ]
    return reps, all(r["passed"] for rs in reps.values() for r in rs)


def _flow_map(p: int):
    from markoff_padic import flow
    from markoff_padic.padic import PadicInt

    def ev(w):
        u, v = w
        one = PadicInt(p, u.precision, 1)
        return (u + (one + u * v).mul_p_power(1), v + (u * u).mul_p_power(1))

    return flow.PointMap(p, ev, "identity")


def mahler_flows(seed: int) -> tuple[dict, bool]:
    """F(t, w) mod 7^3 for t in [-100, 100], checked against iteration of f.

    For t >= 0 the flow is the t-th iterate; for t < 0, iterating f |t|
    times on F(t, w) must return w.
    """
    from markoff_padic import flow
    from markoff_padic.padic import PadicInt

    p, k_out = 7, 3
    f = _flow_map(p)
    rng = random.Random(seed)
    w = (PadicInt(p, 12, rng.randrange(p**12)), PadicInt(p, 12, rng.randrange(p**12)))
    iterates = [w]
    for _ in range(100):
        iterates.append(f(iterates[-1]))
    values, ok = [], True
    for t in range(-100, 101):
        got = flow.mahler_flow(f, t, w, k_out)
        if t >= 0:
            lhs, rhs = got, iterates[t]
        else:
            lhs, rhs = got, w
            for _ in range(-t):
                lhs = f(lhs)
        ok = ok and all(a.congruent_to(b, k_out) for a, b in zip(lhs, rhs))
        values.append([c.residue_mod(k_out) for c in got])
    return {"w": [c.residue for c in w], "values": values}, ok


# -- workloads ------------------------------------------------------------


def _transitive(result: dict) -> bool:
    return result["transitive"] is True


def _count(expected: int):
    return lambda result: result["count"] == expected


def _partitioned(result: dict) -> bool:
    return sum(result["orbit_sizes"]) == result["count"]


def _certified(route: str):
    return lambda result: result["overall"] is True and result["route"] == route


def _lift_orbits(p: int, k: int, d: int) -> Job:
    return _cli(f"orbits --gens aut --p {p} --k {k} --d {d}", _transitive)


WORKLOADS: dict[str, tuple[list[Job], str]] = {
    # criterion-03 configs: the census fiber lift and the 9-generator BFS
    "census-lift": (
        [
            *(_lift_orbits(p, k, d) for p, d in ((7, 0), (11, 0), (5, 3)) for k in (2, 3)),
            _lift_orbits(13, 2, 0),
            # 13 = 1 mod 4: p(p+3) points mod p, each with a fiber of p^4
            _cli("census --p 13 --k 3", _count(13 * 16 * 13**4)),
        ],
        "census --p 13 --k 3",
    ),
    # the brute scan (one and two processes), many-seed gamma partitions and
    # the pure-python catalog BFS
    "census-scan": (
        [
            _cli("census --p 809 --k 1", _count(809 * 812)),
            _cli("census --p 809 --k 1 --workers 2", _count(809 * 812)),
            _cli("orbits --gens gamma --d 4 --p 11 --k 3", _partitioned),
            _cli("orbits --gens gamma --d 4 --p 29 --k 2", _partitioned),
            _cli("orbits --gens gamma --p 7 --k 2", lambda r: r["divisibility"] is True),
            _cli("catalog --p 11 --k 4 --case golden"),
            _cli("catalog --p 7 --k 4 --case D2"),
            _cli("catalog --p 7 --k 4 --case D3-sqrt2"),
        ],
        "census --p 809 --k 1",
    ),
    # long generator words: special-point route at p = 1 mod 4, arbitrary
    # point at p = 3 mod 4, and the exceptional p = 5 route
    "certify-sweep": (
        [
            _cli("certify --k 3 --p 13", _certified("special-point")),
            _cli("certify --k 3 --p 17", _certified("special-point")),
            _cli("certify --k 3 --p 23", _certified("arbitrary-point")),
            _cli("certify --k 3 --p 29", _certified("special-point")),
            _cli("certify --p 5 --d 3", _certified("exceptional-p5")),
            _cli("expansions --p 13"),
            # a point whose T_p image leaves X_D mod p^2 exists here
            _cli("xd-check --p 13 --d 1",
                 lambda r: r["found"] is True and r["value_mod_p2"] != r["D_mod_p2"]),
        ],
        "certify --k 3 --p 29",
    ),
    # scalar PadicInt, DensePoly and Mat2 work with no long words
    "lemmas": (
        [
            Job("chebyshev families", library=chebyshev_families),
            Job("power sums", library=power_sums),
            Job("companion estimates", library=companion_estimates, seeded=True),
            Job("mahler flow", library=mahler_flows, seeded=True),
            _cli("identities --p 13"),
            _cli("flow-check --p 7"),
        ],
        "companion estimates",
    ),
}
