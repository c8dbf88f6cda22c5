"""Flow engine: iteration exactness, truncation soundness, minimality dets."""

import random

import pytest

from markoff_padic.chebyshev import Mat2
from markoff_padic.flow import (
    PointMap,
    local_minimality_det,
    mahler_flow,
    newton_inverse,
    twisted_minimality_det,
    verify_flow_mod_p2,
)
from markoff_padic.padic import PadicInt


def _demo_map(p):
    """f(u, v) = (u + p(1 + uv), v + p u^2): analytic and identity mod p."""

    def ev(w):
        u, v = w
        one = PadicInt(p, u.precision, 1)
        return (u + (one + u * v).mul_p_power(1), v + (u * u).mul_p_power(1))

    return PointMap(p, ev, "identity")


def _affine_map(p):
    """f(w) = A w + b + p-tail, with A the standard shear."""
    A = Mat2(
        PadicInt(p, 8, 1), PadicInt(p, 8, 1), PadicInt(p, 8, 0), PadicInt(p, 8, 1)
    )
    b = (PadicInt(p, 8, 2), PadicInt(p, 8, 3))

    def ev(w):
        u, v = w
        return (
            u + v + 2 + (u * v).mul_p_power(1),
            v + 3 + (v * v).mul_p_power(1),
        )

    return PointMap(p, ev, "affine", A=A, b=b)


def _pair(p, k, u, v):
    return (PadicInt(p, k, u), PadicInt(p, k, v))


def test_flow_t0_is_identity():
    f = _demo_map(7)
    w = _pair(7, 9, 3, 5)
    out = mahler_flow(f, 0, w, 3)
    assert out[0].residue == 3 % 343 and out[1].residue == 5 % 343


def test_flow_equals_iteration():
    for p in (5, 7):
        f = _demo_map(p)
        w = _pair(p, 10, 3, 5)
        it = w
        for n in range(21):
            out = mahler_flow(f, n, w, 3)
            assert out[0].congruent_to(it[0], 3) and out[1].congruent_to(it[1], 3)
            it = f(it)


def test_flow_inverse_at_minus_one():
    f = _demo_map(7)
    w = _pair(7, 10, 4, 6)
    g = mahler_flow(f, -1, w, 4)
    fg = f(g)
    assert fg[0].congruent_to(w[0], 4) and fg[1].congruent_to(w[1], 4)


def test_flow_additivity_random():
    rng = random.Random(41)
    f = _demo_map(5)
    w = _pair(5, 12, 2, 3)
    samples = [
        (rng.randrange(5**3), rng.randrange(5**3), w, 3) for _ in range(50)
    ]
    rep = verify_flow_mod_p2(f, [], additivity_samples=samples)
    assert rep["passed"]


def test_flow_mod_p2_closed_form():
    rng = random.Random(43)
    f = _demo_map(7)
    ws = [_pair(7, 9, rng.randrange(49), rng.randrange(49)) for _ in range(10)]
    samples = [(rng.randrange(49), w) for w in ws for _ in range(5)]
    rep = verify_flow_mod_p2(f, samples)
    assert rep["passed"] and len(rep["closed_form"]) == 50


def test_flow_t_equals_p_oracle():
    # F(p, w) = w + p (f(w) - w) mod p^2, against the p-fold iteration
    p = 5
    f = _demo_map(p)
    w = _pair(p, 10, 3, 4)
    it = w
    for _ in range(p):
        it = f(it)
    out = mahler_flow(f, p, w, 2)
    assert out[0].congruent_to(it[0], 2) and out[1].congruent_to(it[1], 2)


def test_truncation_soundness():
    f = _demo_map(7)
    w = _pair(7, 12, 3, 5)
    for t in (917, -4, 12345):
        base = mahler_flow(f, t, w, 3)
        for extra in (1, 4):
            again = mahler_flow(f, t, w, 3, truncation_order=6 + extra)
            assert base == again


def test_flow_requires_identity_class():
    g = _affine_map(7)
    with pytest.raises(ValueError, match="identity"):
        mahler_flow(g, 2, _pair(7, 8, 0, 0), 2)


def test_flow_insufficient_precision():
    f = _demo_map(7)
    with pytest.raises(ValueError, match="insufficient precision"):
        mahler_flow(f, 2, _pair(7, 2, 0, 0), 3)


def test_point_map_class_is_spot_checked():
    with pytest.raises(ValueError, match="declared mod-p class"):
        PointMap(7, lambda w: (w[0] + 1, w[1]), "identity")
    with pytest.raises(ValueError, match="not invertible"):
        PointMap(
            7,
            lambda w: w,
            "affine",
            A=Mat2(
                PadicInt(7, 2, 7),
                PadicInt(7, 2, 0),
                PadicInt(7, 2, 0),
                PadicInt(7, 2, 1),
            ),
        )


def test_newton_inverse_exact_affine():
    p = 7
    A = Mat2(PadicInt(p, 6, 2), PadicInt(p, 6, 1), PadicInt(p, 6, 1), PadicInt(p, 6, 1))
    b = (PadicInt(p, 6, 4), PadicInt(p, 6, 5))
    f = PointMap(p, lambda w: (A.apply(w)[0] + b[0], A.apply(w)[1] + b[1]), "affine", A=A, b=b)
    y = _pair(p, 6, 10, 20)
    x = newton_inverse(f, y)
    want = A.inverse().apply((y[0] - b[0], y[1] - b[1]))
    assert x[0] == want[0] and x[1] == want[1]


def test_newton_inverse_roundtrip_random():
    rng = random.Random(47)
    g = _affine_map(7)
    for _ in range(100):
        y = _pair(7, 6, rng.randrange(7**6), rng.randrange(7**6))
        x = newton_inverse(g, y)
        gx = g(x)
        assert gx[0].congruent_to(y[0], 6) and gx[1].congruent_to(y[1], 6)


def test_newton_inverse_agrees_with_flow_inverse():
    f = _demo_map(7)
    y = _pair(7, 12, 9, 2)
    via_flow = mahler_flow(f, -1, y, 4)
    via_newton = newton_inverse(f, y)
    assert via_flow[0].congruent_to(via_newton[0], 4)
    assert via_flow[1].congruent_to(via_newton[1], 4)


def _translation(p, vec):
    def ev(w):
        return (
            w[0] + PadicInt(p, w[0].precision + 1, vec[0] * p),
            w[1] + PadicInt(p, w[1].precision + 1, vec[1] * p),
        )

    return PointMap(p, ev, "identity")


def test_local_minimality_det_examples():
    p = 7
    w0 = _pair(p, 4, 1, 1)
    det, unit = local_minimality_det(_translation(p, (1, 0)), _translation(p, (0, 1)), w0)
    assert det.residue == 1 and unit
    f = _translation(p, (2, 3))
    det2, unit2 = local_minimality_det(f, f, w0)
    assert det2.residue == 0 and not unit2
    with pytest.raises(ValueError, match="precision"):
        local_minimality_det(f, f, _pair(p, 1, 0, 0))


def test_twisted_minimality_det_examples():
    p = 7
    w0 = _pair(p, 5, 0, 0)
    # g identity: reduces to det(f, f) = 0
    det, unit = twisted_minimality_det(
        _translation(p, (1, 0)), PointMap(p, lambda w: w, "identity"), w0
    )
    assert det.residue == 0 and not unit
    # shear fixing the translation direction: still 0
    A = Mat2(PadicInt(p, 5, 1), PadicInt(p, 5, 1), PadicInt(p, 5, 0), PadicInt(p, 5, 1))
    g = PointMap(p, lambda w: (w[0] + w[1], w[1]), "affine", A=A)
    det2, unit2 = twisted_minimality_det(_translation(p, (1, 0)), g, w0)
    assert det2.residue == 0 and not unit2
    # rotation-like twist moves the direction: unit determinant
    B = Mat2(PadicInt(p, 5, 0), PadicInt(p, 5, -1), PadicInt(p, 5, 1), PadicInt(p, 5, 0))
    h = PointMap(p, lambda w: (-w[1], w[0]), "affine", A=B)
    det3, unit3 = twisted_minimality_det(_translation(p, (1, 0)), h, w0)
    assert unit3
