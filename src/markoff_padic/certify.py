"""End-to-end certification that a level-1 polydisk is minimal.

`certification_route` refuses parameters outside the theorem and names the
route of an admissible (p, K, D).  The certificate is then built in four
stages: a base point whose polydisk supports the analysis with its chart
recentred at T_p-fixed coordinates (`base_point_chart`), a strict move (a
Vieta word displacing the base point by exactly p^{-1}), residual
transitivity (the stabilizers and the strict move act on the polydisk mod
p^2, the smooth fiber of p^2 points over the base, as affine maps of the
free offsets of the fiber, F_p^2, and ``census.partition`` counts their
orbits), and a unit minimal-subdisk determinant.  The first stage that
fails is recorded as "stage: reason" and ends the run; a refusal by the
memory budget (``census.BudgetError``) is a usage error and propagates.
Certificates are deterministic and replayable: re-running the pipeline on
the recorded parameters must reproduce every recorded value.
"""

from __future__ import annotations

import json

import numpy as np

from . import census
from .chebyshev import Mat2, chebyshev_T_at, rotation_order
from .flow import local_minimality_det, twisted_minimality_det
from .padic import PadicInt, legendre, residue_of, sqrt
from .polydisk import PolydiskChart, parametrize, recentre
from .surface import (
    CONJUGATORS,
    AutWord,
    SurfacePoint,
    VIETA_LETTERS,
    apply_letters,
    apply_word,
    dist,
    eval_P,
    generator_formula,
    is_point,
    lift_point,
    rotation,
    unit_partial,
)

SCHEMA_VERSION = 1


def _coerce_D(D, p: int, k: int) -> PadicInt:
    return PadicInt(p, k, residue_of(D, p, k))


def find_special_point(p: int, D, k: int) -> SurfacePoint:
    """A point with one coordinate at +-2 mod p and all partials units.

    Generic recipe: (2, t + sqrt(D-4), t) with the least residue t whose
    three exclusions hold.  For p = 5 with D = 3 mod 5 the recipe point is
    (sqrt(D-4), 2, 0) instead.
    """
    D = _coerce_D(D, p, k)
    if p == 5 and D.residue_mod(1) == 3:
        s = sqrt(D - 4)
        pt = SurfacePoint(s, PadicInt(p, k, 2), PadicInt(p, k, 0), D)
        return pt.validate()
    if p <= 3 or legendre(D - 4) != 1:
        raise ValueError("no special point recipe")
    s = sqrt(D - 4)
    s1 = s.residue_mod(1)
    for t in range(p):
        if ((t + s1) ** 2 - 4) % p == 0:
            continue
        if (t * t - 4) % p == 0:
            continue
        if (4 - t * (t + s1)) % p == 0:
            continue
        tt = PadicInt(p, k, t)
        pt = SurfacePoint(PadicInt(p, k, 2), tt + s, tt, D)
        return pt.validate()
    raise ValueError("no special point recipe")


def _parab_candidates(pt: SurfacePoint):
    p = pt.prime
    for name, coord in zip("xyz", pt.coords()):
        if coord.residue % p in (2, p - 2):
            yield rotation(name, p)


def _conjugated_power_candidates(pt: SurfacePoint):
    p = pt.prime
    n_quarter = (p * p - 1) // 4
    for name in "xyz":
        power = rotation(name, n_quarter)
        for alpha in CONJUGATORS:
            yield alpha.inverse() * power * alpha


def _collision_bfs(pt: SurfacePoint, budget: int) -> AutWord | None:
    """Find w1, w2 with w1.pt = w2.pt mod p but not mod p^2; return w1^-1 w2.

    Breadth-first search over the Vieta orbit of pt reduced mod p^2, with
    words tracked; distinct mod-p^2 points sharing a mod-p class give the
    strict move by isometry.  Guaranteed to succeed once more points are
    visited than there are mod-p classes.
    """
    p = pt.prime
    classes: dict[tuple, tuple] = {}
    start = pt.residues(2)
    for t, word in census.residue_bfs(start, p * p, VIETA_LETTERS, budget):
        cls = tuple(c % p for c in t)
        if cls in classes:
            return AutWord(classes[cls]).inverse() * AutWord(word)
        classes[cls] = word
    return None


def strict_move_search(pt: SurfacePoint, budget: int = 8):
    """A Vieta word moving pt by exactly p^{-1}.

    Tries the explicit parabolic power (s_. s_.)^p on coordinates at +-2,
    then the (p^2-1)/4-th powers conjugated by short words, then a bounded
    breadth-first collision search over the orbit mod p^2.  The returned
    distance is re-verified letter by letter (``apply_letters``) before
    returning.
    """
    if pt.precision < 2:
        raise ValueError("precision >= 2 required")
    pt.validate()

    def candidates():
        yield from _parab_candidates(pt)
        yield from _conjugated_power_candidates(pt)
        word = _collision_bfs(pt, budget)
        if word is not None:
            yield word

    for word in candidates():
        d = dist(pt, apply_word(word, pt, gamma_only=True))
        if d.exponent != 1:
            continue
        if dist(pt, apply_letters(word, pt)) != d:
            raise ValueError("strict move distance differs letter by letter")
        return word, d
    raise ValueError("no strict move found")


def residual_transitivity(chart: PolydiskChart, words) -> dict:
    """Orbits of the words on the chart polydisk mod p^2, as affine maps of F_p^2.

    The polydisk mod p^2 is the smooth fiber of p^2 points over the base
    mod p, on which a word fixing the base mod p acts as an affine map of
    its free offsets (u, v) (``census`` gives the linearization argument),
    fitted from three frame points by ``census._fiber_perms``.  A word
    moving the base mod p leaves the polydisk and fails the stage.  The
    chart residues are the free offsets translated by the base's second
    digits, so the orbits are the same.  ``census.partition`` partitions
    the p^2 codes u + p v under these maps, once a byte estimate of the
    arrays is within MARKOFF_PADIC_MAX_MEM.  The report carries the orbit
    sizes; the verdict is a single orbit.
    """
    p = chart.prime
    # per residue: 8 per word for its table, and per word its BFS images and
    # their sorted copy while the orbits are expanded; tracemalloc peaks on
    # both routes at p = 211 to 1453 are 38.0-39.9, 52.4-58.2, 66.4-76.0 and
    # 102.5-112.3 bytes per residue with 2, 3, 4 and 7 words
    census.check_budget((8 + 18 * len(words)) * p * p, "residual partition")
    fit = census._fiber_perms(chart.base.residues(1), p, 2, chart.base.D.residue)
    tables = [fit(w) for w in words]
    if any(table is None for table in tables):
        raise ValueError("leaves polydisk")
    sizes, _ = census.partition(np.arange(p * p, dtype=np.int64), [tb.__getitem__ for tb in tables])
    return {
        "transitive": len(sizes) == 1,
        "orbit_sizes": sorted(sizes),
        "generators": [str(w) for w in words],
    }


def certification_route(p: int, k: int, D) -> str:
    """Check that (p, K, D) is admissible and name its certification route.

    Admissible: p > 3, K >= 3, and either D = 0 mod p^2 ("arbitrary-point")
    or (D-4) a nonzero quadratic residue mod p ("special-point"); p = 5 with
    D = 3 mod 5 takes the "exceptional-p5" route.  Anything else raises.
    """
    if p <= 3:
        raise ValueError("certification requires p > 3")
    if k < 3:
        raise ValueError("precision >= 3 required")
    D = _coerce_D(D, p, k)
    if p == 5 and D.residue_mod(1) == 3:
        return "exceptional-p5"
    if legendre(D - 4) == 1:
        return "special-point"
    if D.residue_mod(2) == 0:
        return "arbitrary-point"
    raise ValueError(
        "certification hypotheses fail: need D = 0 mod p^2 or (D-4) a "
        "nonzero quadratic residue mod p"
    )


def _pick_arbitrary_base(p: int, D: PadicInt, k: int):
    """Least enumerated mod-p point, permuted so dP/dx is a unit, lifted."""
    pts = census.enumerate_points(p, 1, D.residue_mod(1))
    if len(pts) == 0:
        raise ValueError("no points mod p")
    triple = tuple(int(v) for v in census._decode(pts[0], p))
    for c in triple:
        if c % p in (0, 2, p - 2):
            raise ValueError(
                "expected all coordinates away from 0, +-2 mod p on this route"
            )
    perm = (None, "pxy", "pzx")[unit_partial(triple, p)]
    if perm is not None:
        triple = generator_formula(perm)(*triple)
    return lift_point(triple, D, p, k), perm


def base_point_chart(p: int, k: int, D, route: str):
    """The base_point and chart fragments of the certificate, and the chart."""
    D = _coerce_D(D, p, k)
    if route == "arbitrary-point":
        base, perm = _pick_arbitrary_base(p, D, k)
    else:
        base, perm = find_special_point(p, D, k), None
    chart = parametrize(base)
    if route != "exceptional-p5":  # there (2, 0) are exact fixed points of T_5
        chart = recentre(chart)
    base_point = {
        "original": list(base.residues()),
        "permutation": perm,
        "recentred": list(chart.base.residues()),
    }
    fragment = {"solved": "x", "partial_mod_p": chart.partial.residue_mod(1)}
    return base_point, fragment, chart


def _stabilizers(chart: PolydiskChart, route: str, optimize_exponent: bool):
    """Stabilizer words of the chart polydisk and their powers g, h.

    The exceptional route uses three fixed words and reports no powers.
    """
    p = chart.prime
    n = (p * p - 1) // 2
    if route == "exceptional-p5":
        return [rotation("x", p), rotation("y", p), rotation("z", n // 2)], None
    m_g = m_h = n // 2
    if optimize_exponent:
        r_y = rotation_order(chart.base.y)
        r_z = rotation_order(chart.base.z)
        m_g = r_y if r_y % 2 else r_y // 2
        m_h = r_z if r_z % 2 else r_z // 2
    gens = [rotation("y", m_g), rotation("z", m_h)]
    return gens, {"g": m_g, "h": m_h}


def _minimal_subdisk(chart: PolydiskChart, route: str, powers) -> dict:
    """The minimal-subdisk determinant of the p-th stabilizer powers."""
    p, k = chart.prime, chart.precision
    n = (p * p - 1) // 2
    if route == "exceptional-p5":
        z0 = chart.base.z
        c2 = (chart.partial * n) * (z0 * z0 - 4).invert()
        A = Mat2(PadicInt(p, k, 1), c2, PadicInt(p, k, 0), PadicInt(p, k, 1))
        f_map = chart.point_map(rotation("y", p * p))
        g_map = chart.point_map(rotation("z", n // 2), kind="affine", A=A)
        witness = (0, 0)
        det, unit = twisted_minimality_det(f_map, g_map, chart.uv(*witness))
        method = "twisted"
    else:
        f_map = chart.point_map(rotation("y", p * powers["g"]))
        g_map = chart.point_map(rotation("z", p * powers["h"]))
        witness = (1, 1)
        det, unit = local_minimality_det(f_map, g_map, chart.uv(*witness))
        method = "direct"
    return {
        "witness": list(witness),
        "method": method,
        "det": det.residue,
        "det_precision": det.precision,
        "unit": unit,
    }


def certify_minimal_polydisk(
    p: int, k: int, D, budget: int = 8, optimize_exponent: bool = False
) -> dict:
    """Assemble a minimality certificate for a level-1 polydisk.

    On a stage failure the later stages' fragments stay None and overall is
    False.  With optimize_exponent the stabilizer powers use the least
    admissible exponent derived from the rotation orders of the recentred
    base coordinates instead of the uniform (p^2-1)/4.
    """
    route = certification_route(p, k, D)
    D = _coerce_D(D, p, k)
    cert = {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "K": k,
        "D": D.residue,
        "budget_words": budget,
        "route": route,
        "base_point": None,
        "chart": None,
        "strict_move": None,
        "residual_transitivity": None,
        "minimal_subdisk": None,
        "stage_failures": [],
        "overall": False,
        "optimized_exponent": bool(optimize_exponent),
    }
    stage = "base-point/chart"
    try:
        cert["base_point"], cert["chart"], chart = base_point_chart(p, k, D, route)
        stage = "strict-move"
        gamma, d = strict_move_search(chart.base, budget)
        cert["strict_move"] = {"word": str(gamma), "dist": str(d)}
        stage = "residual-transitivity"
        gens, powers = _stabilizers(chart, route, optimize_exponent)
        if powers is not None:
            cert["chart"]["stabilizer_powers"] = powers
        rt = residual_transitivity(chart, gens + [gamma])
        cert["residual_transitivity"] = rt
        if not rt["transitive"]:
            raise ValueError("not transitive")
        stage = "minimal-subdisk"
        cert["minimal_subdisk"] = _minimal_subdisk(chart, route, powers)
        if not cert["minimal_subdisk"]["unit"]:
            raise ValueError("determinant not a unit")
    except census.BudgetError:
        raise  # a usage error, like an inadmissible (p, K, D)
    except ValueError as exc:
        cert["stage_failures"].append(f"{stage}: {exc}")
        return cert
    cert["overall"] = True
    return cert


def certificate_json(cert: dict) -> str:
    """Byte-stable serialization (fixed field order, no volatile data)."""
    return json.dumps(cert, indent=2)


def replay(cert: dict) -> tuple[bool, dict]:
    """Re-run the pipeline on the certificate's parameters and compare."""
    fresh = certify_minimal_polydisk(
        cert["p"],
        cert["K"],
        cert["D"],
        budget=cert["budget_words"],
        optimize_exponent=cert.get("optimized_exponent", False),
    )
    return certificate_json(fresh) == certificate_json(cert), fresh


def check_XD(p: int, k: int, D, budget: int = 8, start=None) -> dict:
    """Scan for a point and word with P(T_p(word.point)) != D mod p^2.

    T_p contracts each mod-p disk, so the scanned value only depends on the
    mod-p image of word.point; the scan therefore walks Vieta orbits of the
    mod-p census (word length bounded by the budget), lifting one
    representative per visited class.  A given start must be a nonsingular
    point of X_D mod p.  A negative report is a valid outcome.
    """
    if k < 3:
        raise ValueError("precision >= 3 required")
    D = _coerce_D(D, p, k)
    d2 = D.residue_mod(2)
    if start is not None:
        root = tuple(int(c) % p for c in start)
        if not is_point([PadicInt(p, 1, c) for c in root], D.truncate(1)):
            raise ValueError(
                f"start {tuple(start)} is not a nonsingular point of X_D mod p"
            )
        starts = [root]
    else:
        x, y, z = census._decode(census.enumerate_points(p, 1, D.residue_mod(1)), p)
        starts = list(zip(x.tolist(), y.tolist(), z.tolist()))
    try:
        hypotheses_hold = bool(certification_route(p, k, D))
    except ValueError:
        hypotheses_hold = False
    scanned = 0
    seen = set()
    for root in starts:
        if root in seen:
            continue
        for t, word in census.residue_bfs(root, p, VIETA_LETTERS, budget):
            seen.add(t)
            scanned += 1
            lifted = lift_point(t, D.truncate(2), p, 2)
            tx, ty, tz = (chebyshev_T_at(c, p) for c in lifted.coords())
            value = eval_P(tx, ty, tz).residue_mod(2)
            if value != d2:
                return {
                    "found": True,
                    "start": list(root),
                    "word": str(AutWord(word)),
                    "point": list(t),
                    "value_mod_p2": value,
                    "D_mod_p2": d2,
                    "scanned": scanned,
                    "certify_hypotheses_hold": hypotheses_hold,
                }
    return {
        "found": False,
        "scanned": scanned,
        "D_mod_p2": d2,
        "certify_hypotheses_hold": hypotheses_hold,
    }
