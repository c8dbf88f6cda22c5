"""Level-1 polydisk charts and the local expansions of stabilizer words.

A level-1 polydisk is a fiber of reduction mod p on the surface.  When the
partial derivative of P along one coordinate is a unit at a base point, the
other two coordinates parametrize the fiber: the solved coordinate is the
implicit function xi of the two base coordinates, evaluated on demand by
Newton's method (never stored as a series).  Chart coordinates (u, v) are
the depressed base coordinates (b - b0)/p, so they carry one digit less
than the ambient points.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .chebyshev import fixed_point_Tp
from .flow import PointMap
from .padic import PadicInt
from .surface import AutWord, SurfacePoint, apply_word, reduce_point, solve_fiber

_CYCLIC_BASES = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


class PolydiskChart:
    """Parametrization of the level-1 polydisk around a base point."""

    def __init__(self, base: SurfacePoint, solved: str = "x"):
        if solved not in _CYCLIC_BASES:
            raise ValueError(f"solved coordinate must be x, y or z, got {solved!r}")
        base.validate()
        self.base = base
        self.solved = solved
        self.base_names = _CYCLIC_BASES[solved]
        self.partial = base.partials()["xyz".index(solved)]
        if not self.partial.is_unit():
            raise ValueError("no chart")

    @property
    def prime(self) -> int:
        return self.base.prime

    @property
    def precision(self) -> int:
        return self.base.precision

    def xi(self, b1: PadicInt, b2: PadicInt) -> PadicInt:
        """Solved coordinate on the fiber over the base-coordinate pair."""
        seed = getattr(self.base, self.solved).truncate(
            min(self.precision, b1.precision, b2.precision)
        )
        return solve_fiber(b1, b2, self.base.D, seed)

    def psi(self, u: PadicInt, v: PadicInt) -> SurfacePoint:
        """Chart map: (u, v) -> surface point of the polydisk."""
        n1, n2 = self.base_names
        b1 = getattr(self.base, n1) + u.mul_p_power(1)
        b2 = getattr(self.base, n2) + v.mul_p_power(1)
        return replace(self.base, **{n1: b1, n2: b2, self.solved: self.xi(b1, b2)})

    def psi_inv(self, pt: SurfacePoint) -> tuple[PadicInt, PadicInt]:
        """Chart coordinates of a point of the polydisk (one digit less)."""
        n1, n2 = self.base_names
        d1 = getattr(pt, n1) - getattr(self.base, n1)
        d2 = getattr(pt, n2) - getattr(self.base, n2)
        if d1.residue % self.prime or d2.residue % self.prime:
            raise ValueError("leaves polydisk")
        return (d1.div_p_power(1), d2.div_p_power(1))

    def contains(self, pt: SurfacePoint) -> bool:
        return reduce_point(pt, 1) == reduce_point(self.base, 1)

    def apply_word_uv(self, word: AutWord, uv) -> tuple[PadicInt, PadicInt]:
        """Conjugated action psi^{-1} . word . psi on chart coordinates."""
        image = apply_word(word, self.psi(uv[0], uv[1]))
        if not self.contains(image):
            raise ValueError("leaves polydisk")
        return self.psi_inv(image)

    def point_map(self, word: AutWord, kind="identity", A=None, b=None) -> PointMap:
        """The conjugated word as a PointMap usable by the flow machinery."""
        return PointMap(
            self.prime,
            lambda w: self.apply_word_uv(word, w),
            kind,
            A=A,
            b=b,
            max_precision=self.precision - 1,
        )

    def uv(self, u: int, v: int) -> tuple[PadicInt, PadicInt]:
        """Integer residues as chart coordinates at the working precision."""
        k = self.precision - 1
        return (PadicInt(self.prime, k, u), PadicInt(self.prime, k, v))


def parametrize(pt: SurfacePoint, solved: str = "x") -> PolydiskChart:
    """Chart for the level-1 polydisk of pt, solving the given coordinate."""
    return PolydiskChart(pt, solved)


def recentre(chart: PolydiskChart) -> PolydiskChart:
    """Move the chart center to the T_p-fixed base coordinates.

    The base coordinates must avoid the residues +-2 mod p; the solved
    coordinate is re-solved through xi, so the recentred base is the unique
    point of the same polydisk whose base coordinates are fixed by T_p.
    """
    p = chart.prime
    n1, n2 = chart.base_names
    b1 = getattr(chart.base, n1)
    b2 = getattr(chart.base, n2)
    for b in (b1, b2):
        if b.residue % p in (2, p - 2):
            raise ValueError("border residues +-2 admit no rotation recentring")
    f1 = fixed_point_Tp(b1)
    f2 = fixed_point_Tp(b2)
    centre = replace(chart.base, **{n1: f1, n2: f2, chart.solved: chart.xi(f1, f2)})
    return PolydiskChart(centre, chart.solved)


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


def verify_xi_expansion(chart: PolydiskChart, samples=None) -> dict:
    """Check xi's degree-one expansion in the base coordinates, mod p^2."""
    if chart.precision < 2:
        raise ValueError("precision >= 2 required")
    p, k = chart.prime, chart.precision
    n1, n2 = chart.base_names
    partials = dict(zip("xyz", chart.base.partials()))
    w = chart.partial.invert()
    s1 = -partials[n1] * w
    s2 = -partials[n2] * w
    c0 = getattr(chart.base, chart.solved)
    samples = list(samples) if samples is not None else _default_samples(p, 1, seed=1009 * p)
    failures = []
    for iu, iv in samples:
        u = PadicInt(p, k - 1, iu)
        v = PadicInt(p, k - 1, iv)
        lhs = getattr(chart.psi(u, v), chart.solved)
        rhs = c0 + s1 * u.mul_p_power(1) + s2 * v.mul_p_power(1)
        if not lhs.congruent_to(rhs, 2):
            failures.append({"u": iu, "v": iv})
    return {
        "p": p,
        "solved": chart.solved,
        "method": "pointwise congruence proxy (exhaustive mod p, sampled mod p^2)",
        "num_samples": len(samples),
        "passed": not failures,
        "first_failure": failures[0] if failures else None,
    }


def _pair_congruent(a, b, level: int) -> bool:
    return a[0].congruent_to(b[0], level) and a[1].congruent_to(b[1], level)


def _run_check(chart, word, expected_fns, level, samples) -> list[dict]:
    """Evaluate the conjugated word once per sample against each expected map."""
    samples = list(samples)
    failures = [0] * len(expected_fns)
    first = [None] * len(expected_fns)
    for iu, iv in samples:
        uv = chart.uv(iu, iv)
        got = chart.apply_word_uv(word, uv)
        for i, expected_fn in enumerate(expected_fns):
            want = expected_fn(*uv)
            if not _pair_congruent(got, want, level):
                failures[i] += 1
                if first[i] is None:
                    first[i] = {
                        "u": iu,
                        "v": iv,
                        "got": [g.residue_mod(level) for g in got],
                        "want": [w.residue_mod(level) for w in want],
                    }
    return [
        {"passed": n == 0, "num_samples": len(samples), "first_failure": f}
        for n, f in zip(failures, first)
    ]


def verify_stabilizer_expansions(chart: PolydiskChart, lemma: str, samples=None) -> dict:
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
    """
    if chart.solved != "x":
        raise ValueError("expansion lemmas are stated on charts solving x")
    p, k = chart.prime, chart.precision
    x0, y0, z0 = chart.base.coords()
    dPx, dPy, dPz = chart.base.partials()
    n = (p * p - 1) // 2
    report = {
        "lemma": lemma,
        "p": p,
        "base": chart.base.residues(),
        "method": "pointwise congruence proxy (exhaustive mod p, sampled mod p^2)",
        "checks": {},
        "notes": [],
    }

    if lemma == "parab-f":
        if x0.residue % p not in (2, p - 2):
            raise ValueError("hypothesis violated: x0 must be +-2 mod p")
        word = AutWord(("sy", "sz")).power(p)
        if samples is None:
            samples = _default_samples(p, 1, seed=2003 * p)
        report["checks"]["f-mod-p"] = _run_check(
            chart, word, [lambda u, v: (u + dPy, v - dPz)], 1, samples
        )[0]
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
        g_word = AutWord(("sz", "sx")).power(n // 2)
        h_word = AutWord(("sx", "sy")).power(n // 2)
        if samples is None:
            samples = _default_samples(p, 2, seed=3001 * p)
        mod_p_samples = [s for s in samples if s[0] < p and s[1] < p] or samples
        report["checks"]["g-mod-p"] = _run_check(
            chart, g_word, [lambda u, v: (u, v + c1 * (u + dy))], 1, mod_p_samples
        )[0]
        report["checks"]["h-mod-p"] = _run_check(
            chart, h_word, [lambda u, v: (u + c2 * (v + dz), v)], 1, mod_p_samples
        )[0]
        report["checks"]["gp-mod-p2"], z_variant = _run_check(
            chart,
            g_word.power(p),
            [
                lambda u, v: (u, v + (c1 * (u + dy)).mul_p_power(1)),
                lambda u, v: (u, v + (c1 * (u + dz)).mul_p_power(1)),
            ],
            2,
            samples,
        )
        report["checks"]["hp-mod-p2"] = _run_check(
            chart,
            h_word.power(p),
            [lambda u, v: (u + (c2 * (v + dz)).mul_p_power(1), v)],
            2,
            samples,
        )[0]
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
        word = AutWord(("sy", "sz")).power(n // 2)
        if samples is None:
            samples = _default_samples(p, 1, seed=4001 * p)

        def expected(u, v):
            dot = w2[0] * u + w2[1] * v
            return (u + w1[0] * (dot + dx), v + w1[1] * (dot + dx))

        report["checks"]["f-mod-p"] = _run_check(chart, word, [expected], 1, samples)[0]
    else:
        raise ValueError(f"unknown lemma {lemma!r}")

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    return report
