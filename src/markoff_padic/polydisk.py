"""Level-1 polydisk charts and the local expansions of stabilizer words.

A level-1 polydisk is a fiber of reduction mod p on the surface.  Charts
solve x: when dP/dx is a unit at the base point, (y, z) parametrize the
fiber and x is the implicit function xi of (y, z), evaluated on demand
digit by digit (never stored as a series).  A base whose dP/dx vanishes
mod p has no chart; since the transpositions are automorphisms, a caller
orients it first by the transposition that brings a unit partial to x (as
``certify._pick_arbitrary_base`` does).  Chart coordinates (u, v) are the
depressed base coordinates ((y - y0)/p, (z - z0)/p), so they carry one
digit less than the ambient points.
"""

from __future__ import annotations

import random

from .chebyshev import fixed_point_Tp
from .flow import PointMap
from .padic import PadicInt
from .surface import AutWord, SurfacePoint, apply_word, rotation, solve_fiber


class PolydiskChart:
    """Parametrization of the level-1 polydisk around a base point, solving x."""

    def __init__(self, base: SurfacePoint):
        base.validate()
        self.base = base
        self.partial = base.partials()[0]
        if not self.partial.is_unit():
            raise ValueError("no chart")

    @property
    def prime(self) -> int:
        return self.base.prime

    @property
    def precision(self) -> int:
        return self.base.precision

    def xi(self, y: PadicInt, z: PadicInt) -> PadicInt:
        """x on the fiber over (y, z)."""
        p, k = self.prime, min(self.precision, y.precision, z.precision)
        if (y.residue - self.base.y.residue) % p or (z.residue - self.base.z.residue) % p:
            raise ValueError("leaves polydisk")
        triple = (self.base.x.residue, y.residue, z.residue)
        return PadicInt(p, k, solve_fiber(triple, p, k, self.base.D.residue)[0])

    def psi(self, u: PadicInt, v: PadicInt) -> SurfacePoint:
        """Chart map: (u, v) -> surface point of the polydisk."""
        y = self.base.y + u.mul_p_power(1)
        z = self.base.z + v.mul_p_power(1)
        return SurfacePoint(self.xi(y, z), y, z, self.base.D)

    def psi_inv(self, pt: SurfacePoint) -> tuple[PadicInt, PadicInt]:
        """Chart coordinates of a point of the polydisk (one digit less)."""
        if not self.contains(pt):
            raise ValueError("leaves polydisk")
        return ((pt.y - self.base.y).div_p_power(1), (pt.z - self.base.z).div_p_power(1))

    def contains(self, pt: SurfacePoint) -> bool:
        return pt.residues(1) == self.base.residues(1)

    def apply_word_uv(self, word: AutWord, uv) -> tuple[PadicInt, PadicInt]:
        """Conjugated action psi^{-1} . word . psi on chart coordinates."""
        return self.psi_inv(apply_word(word, self.psi(uv[0], uv[1])))

    def point_map(self, word: AutWord, kind="identity", A=None) -> PointMap:
        """The conjugated word as a PointMap usable by the flow machinery."""
        return PointMap(
            self.prime,
            lambda w: self.apply_word_uv(word, w),
            kind,
            A=A,
            max_precision=self.precision - 1,
        )

    def uv(self, u: int, v: int) -> tuple[PadicInt, PadicInt]:
        """Integer residues as chart coordinates at the working precision."""
        k = self.precision - 1
        return (PadicInt(self.prime, k, u), PadicInt(self.prime, k, v))


def parametrize(pt: SurfacePoint) -> PolydiskChart:
    """Chart for the level-1 polydisk of pt, solving x."""
    return PolydiskChart(pt)


def recentre(chart: PolydiskChart) -> PolydiskChart:
    """Move the chart center to the T_p-fixed base coordinates.

    y and z must avoid the residues +-2 mod p; x is re-solved through xi,
    so the recentred base is the unique point of the same polydisk whose
    y and z are fixed by T_p.
    """
    p = chart.prime
    for b in (chart.base.y, chart.base.z):
        if b.residue % p in (2, p - 2):
            raise ValueError("border residues +-2 admit no rotation recentring")
    y = fixed_point_Tp(chart.base.y)
    z = fixed_point_Tp(chart.base.z)
    return PolydiskChart(SurfacePoint(chart.xi(y, z), y, z, chart.base.D))


def _default_samples(p: int, level: int, seed: int):
    """Exhaustive mod-p grid when small, then seeded residues mod p^level."""
    out = []
    if p <= 13:
        out.extend((u, v) for u in range(p) for v in range(p))
    else:
        rng = random.Random(seed)
        out.extend((rng.randrange(p), rng.randrange(p)) for _ in range(100))
    if level >= 2:
        rng = random.Random(seed + 1)
        out.extend(
            (rng.randrange(p**level), rng.randrange(p**level)) for _ in range(100)
        )
    return out


def verify_xi_expansion(chart: PolydiskChart) -> dict:
    """Check xi's degree-one expansion in (y, z), mod p^2."""
    if chart.precision < 2:
        raise ValueError("precision >= 2 required")
    p = chart.prime
    _, dPy, dPz = chart.base.partials()
    w = chart.partial.invert()
    s1 = -dPy * w
    s2 = -dPz * w
    samples = _default_samples(p, 1, seed=1009 * p)
    failures = []
    for iu, iv in samples:
        u, v = chart.uv(iu, iv)
        lhs = chart.psi(u, v).x
        rhs = chart.base.x + s1 * u.mul_p_power(1) + s2 * v.mul_p_power(1)
        if not lhs.congruent_to(rhs, 2):
            failures.append({"u": iu, "v": iv})
    return {
        "p": p,
        "solved": "x",
        "method": "pointwise congruence proxy (exhaustive mod p, sampled mod p^2)",
        "num_samples": len(samples),
        "passed": not failures,
        "first_failure": failures[0] if failures else None,
    }


def _run_check(chart, checks, samples) -> list[dict]:
    """Solve each sample's chart point once and map it by every check's word.

    ``checks`` lists (word, expected maps, level): the chart image of the
    word at psi(u, v) must agree mod p^level with each expected map of
    (u, v).  One {passed, num_samples, first_failure} per expected map, in
    order; the first failure is the first sample, in sample order, to miss.
    """
    flat = [(j, fn, level) for j, (_, fns, level) in enumerate(checks) for fn in fns]
    first = [None] * len(flat)
    for iu, iv in samples:
        uv = chart.uv(iu, iv)
        pt = chart.psi(*uv)
        images = [chart.psi_inv(apply_word(word, pt)) for word, _, _ in checks]
        for i, (j, fn, level) in enumerate(flat):
            got, want = images[j], fn(*uv)
            ok = all(g.congruent_to(w, level) for g, w in zip(got, want))
            if not ok and first[i] is None:
                got_r, want_r = ([c.residue_mod(level) for c in t] for t in (got, want))
                first[i] = {"u": iu, "v": iv, "got": got_r, "want": want_r}
    n = len(samples)
    return [{"passed": f is None, "num_samples": n, "first_failure": f} for f in first]


def verify_stabilizer_expansions(chart: PolydiskChart, lemma: str) -> dict:
    """Pointwise verification of one of the three stabilizer expansion lemmas.

    lemma "parab-f":  x0 = +-2 mod p; (s_y s_z)^p is a translation by
        (dP/dy, -dP/dz) mod p on chart coordinates.
    lemma "g-and-h":  y0, z0 != +-2 mod p; (s_z s_x)^{(p^2-1)/4} and
        (s_x s_y)^{(p^2-1)/4} are unipotent with off-diagonal constants
        c1 = -N dP/dx / (y0^2 - 4) and c2 = N dP/dx / (z0^2 - 4), N=(p^2-1)/2,
        plus their p-th powers mod p^2.  Two readings of the g^p constant
        term are possible (y-drift or z-drift); the derivation produces the
        y-drift, so that version is asserted and the other reported.
    lemma "nonpara-f": x0 != +-2 mod p; (s_y s_z)^{(p^2-1)/4} is
        I + w1 w2^T plus the drift ((x0 - x1)/p) w1 mod p.

    A lemma is a table of (word, expected maps, level) checks per sample
    set, and ``_run_check`` solves each sample's chart point once for all
    of them: g-and-h checks g and h on its mod-p samples, then g^p and h^p
    on all its samples.
    """
    p, k = chart.prime, chart.precision
    x0, y0, z0 = chart.base.coords()
    dPx, dPy, dPz = chart.base.partials()
    n = (p * p - 1) // 2
    checks = {}
    report = {
        "lemma": lemma,
        "p": p,
        "base": chart.base.residues(),
        "method": "pointwise congruence proxy (exhaustive mod p, sampled mod p^2)",
        "checks": checks,
        "notes": [],
    }

    if lemma == "parab-f":
        if x0.residue % p not in (2, p - 2):
            raise ValueError("hypothesis violated: x0 must be +-2 mod p")
        word = rotation("x", p)
        samples = _default_samples(p, 1, seed=2003 * p)
        (checks["f-mod-p"],) = _run_check(
            chart, [(word, [lambda u, v: (u + dPy, v - dPz)], 1)], samples
        )
    elif lemma == "g-and-h":
        if y0.residue % p in (2, p - 2):
            raise ValueError("hypothesis violated: y0 must not be +-2 mod p")
        if z0.residue % p in (2, p - 2):
            raise ValueError("hypothesis violated: z0 must not be +-2 mod p")
        if k < 3:
            raise ValueError("precision >= 3 required for the mod-p^2 claims")
        y1 = fixed_point_Tp(y0)
        z1 = fixed_point_Tp(z0)
        dy = (y0 - y1).div_p_power(1)
        dz = (z0 - z1).div_p_power(1)
        c1 = -(dPx * n) * (y0 * y0 - 4).invert()
        c2 = (dPx * n) * (z0 * z0 - 4).invert()
        g_word = rotation("y", n // 2)
        h_word = rotation("z", n // 2)
        samples = _default_samples(p, 2, seed=3001 * p)
        mod_p_samples = [s for s in samples if s[0] < p and s[1] < p]
        g_maps = [lambda u, v: (u, v + c1 * (u + dy))]
        h_maps = [lambda u, v: (u + c2 * (v + dz), v)]
        mod_p = [(g_word, g_maps, 1), (h_word, h_maps, 1)]
        checks["g-mod-p"], checks["h-mod-p"] = _run_check(chart, mod_p, mod_p_samples)
        # g^p under the y-drift reading, then the z-drift one
        gp_maps = [
            lambda u, v, d=d: (u, v + (c1 * (u + d)).mul_p_power(1)) for d in (dy, dz)
        ]
        hp_maps = [lambda u, v: (u + (c2 * (v + dz)).mul_p_power(1), v)]
        mod_p2 = [(g_word.power(p), gp_maps, 2), (h_word.power(p), hp_maps, 2)]
        checks["gp-mod-p2"], z_variant, checks["hp-mod-p2"] = _run_check(
            chart, mod_p2, samples
        )
        report["notes"].append(
            {
                "gp-constant-term": "asserted y-drift",
                "z-drift-variant-passes": z_variant["passed"],
            }
        )
    elif lemma == "nonpara-f":
        if x0.residue % p in (2, p - 2):
            raise ValueError("hypothesis violated: x0 must not be +-2 mod p")
        x1 = fixed_point_Tp(x0)
        dx = (x0 - x1).div_p_power(1)
        c0 = (x0 * x0 - 4).invert() * n
        w1 = (-dPz * c0, dPy * c0)
        wneg = -dPx.invert()
        w2 = (dPy * wneg, dPz * wneg)
        word = rotation("x", n // 2)
        samples = _default_samples(p, 1, seed=4001 * p)

        def expected(u, v):
            dot = w2[0] * u + w2[1] * v
            return (u + w1[0] * (dot + dx), v + w1[1] * (dot + dx))

        (checks["f-mod-p"],) = _run_check(chart, [(word, [expected], 1)], samples)
    else:
        raise ValueError(f"unknown lemma {lemma!r}")

    report["passed"] = all(c["passed"] for c in checks.values())
    return report


def verify_expansions(chart: PolydiskChart) -> dict:
    """xi's expansion, then each lemma whose +-2 mod p hypotheses the base meets."""
    p = chart.prime
    x0, y0, z0 = chart.base.residues(1)
    suites = {"xi_expansion": verify_xi_expansion(chart)}
    f_lemma = "parab-f" if x0 in (2, p - 2) else "nonpara-f"
    suites[f_lemma] = verify_stabilizer_expansions(chart, f_lemma)
    if y0 not in (2, p - 2) and z0 not in (2, p - 2):
        suites["g-and-h"] = verify_stabilizer_expansions(chart, "g-and-h")
    return suites
