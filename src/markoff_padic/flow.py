"""Flow interpolation of near-identity maps, and the two minimality tests.

A map f congruent to the identity mod p has a flow F(t, w) interpolating its
iterates: F(n, w) = f^n(w) for nonnegative integers n, and t ranges over all
of Z_p.  The flow is evaluated here by the Mahler series
    F(t, w) = sum_j  t(t-1)...(t-j+1)/j! * D^j(w),
where D^j(w) is the j-th forward difference of the orbit w, f(w), f^2(w), ...
The j-th term has p-adic size at most p^{-j/2}, so truncating at 2*K terms
is sound modulo p^K; the p-part of j! is cancelled against the guaranteed
valuation of D^j(w), which costs the inputs a few pad digits of precision.
"""

from __future__ import annotations

import math

from .chebyshev import Mat2
from .padic import PadicInt

Pair = tuple[PadicInt, PadicInt]

_CLASS_CHECK_SAMPLES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (5, 1), (3, 4))


class PointMap:
    """A black-box self-map of pairs with a declared mod-p class.

    kind is "identity" (f(w) = w mod p) or "affine" (f(w) = A.w + b mod p
    with A invertible mod p).  The declared class is spot-checked on a fixed
    sample set at construction time rather than trusted.  max_precision
    bounds the input precision the evaluator supports (None = unbounded).
    """

    def __init__(self, prime, evaluator, kind, A=None, b=None, max_precision=None):
        if kind not in ("identity", "affine"):
            raise ValueError(f"unknown map kind {kind!r}")
        if kind == "affine":
            if A is None:
                raise ValueError("affine maps must declare the matrix A")
            if not A.det().is_unit():
                raise ValueError("declared matrix A is not invertible mod p")
            if b is None:
                b = (PadicInt(prime, 1, 0), PadicInt(prime, 1, 0))
        self.prime = prime
        self.evaluator = evaluator
        self.kind = kind
        self.A = A
        self.b = b
        self.max_precision = max_precision
        self._spot_check()

    def _spot_check(self):
        k = 1 if self.max_precision is None else min(2, self.max_precision)
        for u, v in _CLASS_CHECK_SAMPLES:
            w = (PadicInt(self.prime, k, u), PadicInt(self.prime, k, v))
            fw = self.evaluator(w)
            if self.kind == "identity":
                ok = fw[0].congruent_to(w[0], 1) and fw[1].congruent_to(w[1], 1)
            else:
                aw = self.A.apply(w)
                ok = fw[0].congruent_to(aw[0] + self.b[0], 1) and fw[1].congruent_to(
                    aw[1] + self.b[1], 1
                )
            if not ok:
                raise ValueError(
                    f"map does not match its declared mod-p class {self.kind!r}"
                )

    def __call__(self, w: Pair) -> Pair:
        return self.evaluator(w)


def _vp_factorial(j: int, p: int) -> int:
    e, q = 0, p
    while q <= j:
        e += j // q
        q *= p
    return e


def mahler_flow(f: PointMap, t, w: Pair, k_out: int, truncation_order=None) -> Pair:
    """Evaluate the flow of f at time t, correct modulo p^k_out.

    Requires f = id mod p and input precision at least k_out + pad, where
    pad = val_p((2 k_out)!) absorbs the factorial divisions.  t may be an
    int or a PadicInt of the same precision.
    """
    if f.kind != "identity":
        raise ValueError("flow requires a map congruent to the identity mod p")
    p = f.prime
    J = truncation_order if truncation_order is not None else 2 * k_out
    pad = _vp_factorial(J, p)
    k_work = k_out + pad
    if f.max_precision is not None and k_work > f.max_precision:
        raise ValueError(
            f"insufficient precision: need {k_work}, evaluator supports "
            f"{f.max_precision}"
        )
    if min(w[0].precision, w[1].precision) < k_work:
        raise ValueError(f"insufficient precision: inputs must carry >= {k_work}")
    if isinstance(t, int):
        t = PadicInt(p, k_work, t)
    elif t.precision < k_work:
        raise ValueError(f"insufficient precision: t must carry >= {k_work}")
    t = t.truncate(k_work)

    orbit = [(w[0].truncate(k_work), w[1].truncate(k_work))]
    for _ in range(J):
        orbit.append(f(orbit[-1]))

    out_u = PadicInt(p, k_work, 0)
    out_v = PadicInt(p, k_work, 0)
    falling = PadicInt(p, k_work, 1)
    table = list(orbit)
    for j in range(J + 1):
        delta = table[0]
        e = _vp_factorial(j, p)
        unit_inv = PadicInt(p, k_work, math.factorial(j) // p**e).invert()
        coeff = falling * unit_inv
        if e:
            term_u = delta[0].div_p_power(e) * coeff
            term_v = delta[1].div_p_power(e) * coeff
        else:
            term_u = delta[0] * coeff
            term_v = delta[1] * coeff
        out_u = out_u + term_u
        out_v = out_v + term_v
        falling = falling * (t - j)
        table = [
            (b[0] - a[0], b[1] - a[1]) for a, b in zip(table, table[1:])
        ]
    return (out_u.truncate(k_out), out_v.truncate(k_out))


def verify_flow_mod_p2(f: PointMap, samples, additivity_samples=()) -> dict:
    """Check the degree-one truncation F(t, w) = w + (f(w) - w) t mod p^2.

    samples is an iterable of (t, w) pairs; additivity_samples an iterable
    of (s, t, w, level) tuples checked for F(s+t, w) = F(s, F(t, w)) at the
    given level.
    """
    p = f.prime
    closed_form = []
    for t, w in samples:
        lhs = mahler_flow(f, t, w, 2)
        fw = f(w)
        tt = PadicInt(p, w[0].precision, t) if isinstance(t, int) else t
        rhs = (w[0] + (fw[0] - w[0]) * tt, w[1] + (fw[1] - w[1]) * tt)
        ok = lhs[0].congruent_to(rhs[0], 2) and lhs[1].congruent_to(rhs[1], 2)
        closed_form.append(
            {"t": tt.residue_mod(2), "w": (w[0].residue_mod(2), w[1].residue_mod(2)), "ok": ok}
        )
    additivity = []
    for s, t, w, level in additivity_samples:
        inner_level = level + _vp_factorial(2 * level, p)
        inner = mahler_flow(f, t, w, inner_level)
        nested = mahler_flow(f, s, inner, level)
        st = (
            (PadicInt(p, w[0].precision, s) if isinstance(s, int) else s)
            + (PadicInt(p, w[0].precision, t) if isinstance(t, int) else t)
        )
        direct = mahler_flow(f, st, w, level)
        ok = direct[0].congruent_to(nested[0], level) and direct[1].congruent_to(
            nested[1], level
        )
        additivity.append({"level": level, "ok": ok})
    passed = all(c["ok"] for c in closed_form) and all(c["ok"] for c in additivity)
    return {
        "closed_form": closed_form,
        "additivity": additivity,
        "passed": passed,
    }


def newton_inverse(f: PointMap, y: Pair) -> Pair:
    """Solve f(x) = y using the declared mod-p linearization as Jacobian.

    For affine-mod-p maps the solution satisfies x = A^{-1}(y - b) mod p;
    identity-mod-p maps are the special case A = I, b = 0.  Each iteration
    gains at least one digit.
    """
    p = f.prime
    k = min(y[0].precision, y[1].precision)
    if f.max_precision is not None:
        k = min(k, f.max_precision)
    if f.kind == "affine":
        # any lift of the declared mod-p data works as a Jacobian surrogate
        a_k = Mat2(*(PadicInt(p, k, e.residue) for e in f.A.entries()))
        a_inv = a_k.inverse()
        b = tuple(PadicInt(p, k, c.residue) for c in f.b)
    else:
        a_inv = Mat2.identity(p, k)
        b = (PadicInt(p, k, 0), PadicInt(p, k, 0))
    y = (y[0].truncate(k), y[1].truncate(k))
    x = a_inv.apply((y[0] - b[0], y[1] - b[1]))
    for _ in range(k):
        fx = f(x)
        corr = a_inv.apply((y[0] - fx[0], y[1] - fx[1]))
        x = (x[0] + corr[0], x[1] + corr[1])
    return x


def _displacement(f: PointMap, w: Pair) -> Pair:
    fw = f(w)
    return ((fw[0] - w[0]).div_p_power(1), (fw[1] - w[1]).div_p_power(1))


def local_minimality_det(f: PointMap, g: PointMap, w0: Pair):
    """det[(f(w0)-w0)/p, (g(w0)-w0)/p] and whether it is a unit.

    A unit verdict certifies that the group generated by f and g acts
    minimally on the p-adic disk around w0.
    """
    if f.kind != "identity" or g.kind != "identity":
        raise ValueError("both maps must be congruent to the identity mod p")
    if min(w0[0].precision, w0[1].precision) < 2:
        raise ValueError("precision >= 2 required")
    df = _displacement(f, w0)
    dg = _displacement(g, w0)
    det = df[0] * dg[1] - df[1] * dg[0]
    return det, det.is_unit()


def twisted_minimality_det(f: PointMap, g: PointMap, w0: Pair):
    """det[(f(w0)-w0)/p, A.(f(g^{-1}(w0))-g^{-1}(w0))/p] and its unit verdict.

    A unit verdict certifies minimality of the group generated by f and
    g f g^{-1} on the disk around w0; g must be affine mod p with matrix A.
    """
    if f.kind != "identity":
        raise ValueError("f must be congruent to the identity mod p")
    if min(w0[0].precision, w0[1].precision) < 2:
        raise ValueError("precision >= 2 required")
    if g.kind == "affine":
        A = g.A
    else:
        A = Mat2.identity(g.prime, min(w0[0].precision, w0[1].precision))
    x = newton_inverse(g, w0)
    v1 = _displacement(f, w0)
    v2 = A.apply(_displacement(f, x))
    det = v1[0] * v2[1] - v1[1] * v2[0]
    return det, det.is_unit()
