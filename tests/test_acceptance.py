"""Acceptance criteria, one test per criterion, timed at the stated budgets.

Each test prints a single PASS/FAIL line (visible under pytest -s or -rA).
Criterion 1 pins |X_0*(Z/pZ)| = p(p + 3*(-1|p)), which is 40 at p = 5.
"""

import random
import time

import numpy as np
import pytest

from markoff_padic import census, certify, chebyshev, flow, polydisk, surface
from markoff_padic.padic import PadicInt


def _criterion(num, desc, cond, elapsed, limit):
    status = "PASS" if (cond and elapsed < limit) else "FAIL"
    print(f"[criterion {num:02d}] {status}: {desc} ({elapsed:.2f}s / {limit}s)")
    assert cond, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_counting():
    t0 = time.perf_counter()
    got = {p: census.count_points(p, 1, 0)["count"] for p in (5, 7, 11, 19)}
    elapsed = time.perf_counter() - t0
    want = {5: 40, 7: 28, 11: 88, 19: 304}
    # |X_0*(F_p)| = p(p + 3*(-1|p)) (Bourgain-Gamburd-Sarnak); (-1|p) from p mod 4.
    assert all(n == p * (p + 3 * (1 if p % 4 == 1 else -1)) for p, n in want.items())
    ok = got == want
    if not ok:
        print(f"[criterion 01] counting mismatch: got {got}, want {want}")
    _criterion(1, "quadratic-solve counts at p=5,7,11,19", ok, elapsed, 5.0)


def test_criterion_02_orbit_divisibility():
    t0 = time.perf_counter()
    ok = True
    for p in (7, 11):
        _, divisible = census.orbit_divisibility(p, 2, 0)
        ok = ok and divisible
    _criterion(2, "Vieta orbit sizes divisible by p^2", ok, time.perf_counter() - t0, 60.0)


def test_criterion_03_transitivity_lift():
    t0 = time.perf_counter()
    ok = True
    for p, D in ((7, 0), (11, 0), (13, 0), (5, 3)):
        assert census.check_transitivity(p, 1, D, "aut"), "mod-p hypothesis"
        for k in (2, 3):
            ok = ok and census.check_transitivity(p, k, D, "aut")
    _criterion(3, "Aut transitive at levels 2 and 3", ok, time.perf_counter() - t0, 30.0)


def test_criterion_04_chebyshev_suite():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        k = 2
        ts = [chebyshev.chebyshev_T(n, p, k) for n in range(-1, 201)]
        us = [chebyshev.chebyshev_U(n, p, k) for n in range(-1, 201)]
        for n in range(2, 201):
            ok = ok and ts[n + 1] == ts[n].shift_x() - ts[n - 1]
            ok = ok and us[n + 1] == us[n].shift_x() - us[n - 1]
        for n in range(0, 201, 7):
            ok = ok and chebyshev.chebyshev_T(-n, p, k) == ts[n + 1]
            ok = ok and chebyshev.chebyshev_U(-n - 2, p, k) == us[n + 1] * (-1)
        ok = ok and chebyshev.verify_power_sum_identity(p, 3)["passed"]
        ok = ok and chebyshev.verify_power_sum_identity(p, 1)["frobenius_mod_p"]
    rng = random.Random(2024)
    p, k = 13, 2
    for _ in range(50):
        x = PadicInt(p, k, rng.randrange(p**k))
        u = [PadicInt(p, k, -1), PadicInt(p, k, 0), PadicInt(p, k, 1)]
        m = chebyshev.Mat2.identity(p, k)
        c = chebyshev.companion(x)
        for n in range(201):
            ok = ok and m.entries() == (u[n + 2], -u[n + 1], u[n + 1], -u[n])
            m = m @ c
            u.append(x * u[-1] - u[-2])
    _criterion(4, "Chebyshev recurrences/symmetries/companion/collection", ok, time.perf_counter() - t0, 10.0)


def _estimate_bases(p, per_class=10):
    generic = [r for r in range(p) if r not in (2, p - 2)]
    gen = [generic[i % len(generic)] + p * (i // len(generic)) for i in range(per_class)]
    parab = [(2, p - 2)[i % 2] + p * (i // 2) for i in range(per_class)]
    return gen, parab


def test_criterion_05_companion_estimates():
    t0 = time.perf_counter()
    ok = True
    for p in (5, 7, 11, 13):
        rng = random.Random(100 + p)
        us = list(range(p)) + [rng.randrange(p * p) for _ in range(100)]
        gen, parab = _estimate_bases(p)
        for x0 in gen + parab:
            rep = chebyshev.verify_companion_estimates(PadicInt(p, 3, x0), us)
            ok = ok and rep["passed"]
    _criterion(5, "companion power estimates at all sampled u", ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_flow_engine():
    t0 = time.perf_counter()
    p = 7

    def ev(w):
        u, v = w
        one = PadicInt(p, u.precision, 1)
        return (u + (one + u * v).mul_p_power(1), v + (u * u).mul_p_power(1))

    f = flow.PointMap(p, ev, "identity")
    w = (PadicInt(p, 12, 3), PadicInt(p, 12, 5))
    ok = True
    it = w
    for n in range(21):
        out = flow.mahler_flow(f, n, w, 3)
        ok = ok and out[0].congruent_to(it[0], 3) and out[1].congruent_to(it[1], 3)
        it = f(it)
    rng = random.Random(61)
    additivity = [(rng.randrange(p**3), rng.randrange(p**3), w, 3) for _ in range(50)]
    closed = [
        (rng.randrange(p**2), (PadicInt(p, 12, rng.randrange(p**4)), PadicInt(p, 12, rng.randrange(p**4))))
        for _ in range(200)
    ]
    rep = flow.verify_flow_mod_p2(f, closed, additivity_samples=additivity)
    ok = ok and rep["passed"]
    for t in (917, -5):
        a = flow.mahler_flow(f, t, w, 3)
        b = flow.mahler_flow(f, t, w, 3, truncation_order=2 * 3 + 4)
        ok = ok and a == b
    _criterion(6, "flow: iteration, additivity, mod-p^2 form, truncation", ok, time.perf_counter() - t0, 60.0)


def _charts_for_expansions(p):
    """Charts satisfying each lemma's hypotheses at this prime."""
    charts = []
    if p == 5:
        base = certify.find_special_point(5, 0, 4)  # (2,1,0): parab + g-and-h
        ch = polydisk.parametrize(base)
        charts.append((ch, ["parab-f", "g-and-h"]))
        nonpara = surface.lift_point((0, 1, 2), 0, 5, 4)
        charts.append((polydisk.parametrize(nonpara), ["nonpara-f"]))
    elif p == 7:
        base = certify.find_special_point(7, 1, 4)
        charts.append((polydisk.parametrize(base), ["parab-f", "g-and-h"]))
        nonpara = surface.lift_point((1, 4, 1), 0, 7, 4)
        ch = polydisk.recentre(polydisk.parametrize(nonpara))
        charts.append((ch, ["nonpara-f", "g-and-h"]))
    else:
        base = certify.find_special_point(p, 0, 4)
        charts.append((polydisk.parametrize(base), ["parab-f", "g-and-h"]))
        pts = census.enumerate_points(p, 1, 0)
        for code in pts:
            x, y, z = (int(c) for c in census._decode(code, p))
            if x in (2, p - 2) or not (2 * x - y * z) % p:
                continue
            nonpara = surface.lift_point((x, y, z), 0, p, 4)
            charts.append(
                (polydisk.recentre(polydisk.parametrize(nonpara)), ["nonpara-f"])
            )
            break
    return charts


def test_criterion_07_expansion_lemmas():
    t0 = time.perf_counter()
    ok = True
    for p in (5, 7, 13):
        for chart, lemmas in _charts_for_expansions(p):
            ok = ok and polydisk.verify_xi_expansion(chart)["passed"]
            for lemma in lemmas:
                rep = polydisk.verify_stabilizer_expansions(chart, lemma)
                ok = ok and rep["passed"]
    _criterion(7, "stabilizer expansion lemmas at p=5,7,13", ok, time.perf_counter() - t0, 120.0)


def test_criterion_08_strict_move():
    t0 = time.perf_counter()
    pt13 = certify.find_special_point(13, 0, 3)
    word, d = certify.strict_move_search(pt13)
    ok = word == surface.AutWord(("sy", "sz")).power(13) and d.exponent == 1
    pt7 = surface.lift_point((1, 4, 1), 0, 7, 3)
    word7, d7 = certify.strict_move_search(pt7)
    ok = ok and d7.exponent == 1 and len(word7) > 0
    _criterion(8, "strict moves at (13,0) special point and (7,0)", ok, time.perf_counter() - t0, 60.0)


def test_criterion_09_certification():
    t0 = time.perf_counter()
    ok = True
    for p, k, D in ((7, 3, 0), (11, 3, 0), (13, 3, 0), (5, 3, 3)):
        cert = certify.certify_minimal_polydisk(p, k, D)
        ok = ok and cert["overall"]
        replay_ok, _ = certify.replay(cert)
        ok = ok and replay_ok
    _criterion(9, "minimal-polydisk certificates with replay", ok, time.perf_counter() - t0, 300.0)


def test_criterion_10_finite_orbit_catalog():
    t0 = time.perf_counter()
    ok = True
    collapses = []
    rep = census.finite_orbit_catalog(7, 4, "D2")
    ok = ok and rep["orbits"][0]["gamma_size"] == 16
    rep = census.finite_orbit_catalog(7, 4, "D3-sqrt2")
    ok = ok and rep["orbits"][0]["gamma_size"] == 12
    rep = census.finite_orbit_catalog(11, 4, "golden")
    sizes = sorted(o["gamma_size"] for o in rep["orbits"])
    ok = ok and sizes == [40, 40, 72]
    collapses += [o for o in rep["orbits"] if o["collapsed"]]
    if collapses:
        print(f"[criterion 10] collapses observed: {collapses}")
    _criterion(10, "catalog orbit sizes 16/12/40+40+72 at K=4", ok, time.perf_counter() - t0, 60.0)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    ok = True
    # padic ring laws, exhaustive at a small modulus
    p, k = 5, 2
    values = [PadicInt(p, k, r) for r in range(p**k)]
    for a in values[:10]:
        for b in values:
            ok = ok and (a + b == b + a) and (a * b == b * a)
    rng = random.Random(71)
    for _ in range(1000):
        a, b, c = (PadicInt(7, 3, rng.randrange(343)) for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
    # ultrametric and isometry of dist
    pts = []
    codes = census.enumerate_points(7, 1, 0)
    for code in codes[:12]:
        x, y, z = (int(c) for c in census._decode(code, 7))
        pts.append(surface.lift_point((x, y, z), 0, 7, 3))
    letters = list(surface.ALL_LETTERS)
    for _ in range(1000):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        ok = ok and surface.dist(a, c).exponent >= min(
            surface.dist(a, b).exponent, surface.dist(b, c).exponent
        )
        w = surface.AutWord(tuple(rng.choice(letters) for _ in range(rng.randrange(7))))
        ok = ok and surface.dist(
            surface.apply_word(w, a), surface.apply_word(w, b)
        ).exponent == surface.dist(a, b).exponent
    # chart round-trips
    ch = polydisk.parametrize(surface.point(3, 3, 3, 0, 7, 3))
    for _ in range(1000):
        uu, vv = ch.uv(rng.randrange(49), rng.randrange(49))
        gu, gv = ch.psi_inv(ch.psi(uu, vv))
        ok = ok and gu == uu and gv == vv
    # certificate replay determinism
    cert = certify.certify_minimal_polydisk(5, 3, 3)
    replay_ok, fresh = certify.replay(cert)
    ok = ok and replay_ok
    ok = ok and certify.certificate_json(fresh) == certify.certificate_json(cert)
    _criterion(11, "ring laws, ultrametric/isometry, round-trips, replay", ok, time.perf_counter() - t0, 60.0)
