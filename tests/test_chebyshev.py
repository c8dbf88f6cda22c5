"""Chebyshev machinery against the recurrences and matrix oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoff_padic import chebyshev
from markoff_padic.chebyshev import (
    Mat2,
    chebyshev_T,
    chebyshev_T_at,
    chebyshev_U,
    chebyshev_U_at,
    _cheb_family,
    _mat_power,
    companion,
    companion_power,
    fixed_point_Tp,
    rotation_order,
    verify_companion_estimates,
    verify_power_sum_identity,
)
from markoff_padic.padic import PadicInt


def test_initials_and_small_values():
    p, k = 7, 3
    assert chebyshev_T(0, p, k).coeffs == (2,)
    assert chebyshev_T(1, p, k).coeffs == (0, 1)
    assert chebyshev_U(0, p, k).coeffs == (1,)
    assert chebyshev_U(-1, p, k).coeffs == ()
    assert chebyshev_U(-2, p, k).coeffs == ((-1) % 343,)


def test_T5_unrolled_by_hand():
    # T2 = x^2-2, T3 = x^3-3x, T4 = x^4-4x^2+2, T5 = x^5-5x^3+5x
    got = chebyshev_T(5, 7, 3)
    assert got.coeffs == (0, 5, 0, (-5) % 343, 0, 1)


def test_U4_at_3():
    # recurrence oracle: 1, 3, 8, 21, 55
    seq = [1, 3]
    for _ in range(3):
        seq.append(3 * seq[-1] - seq[-2])
    assert seq[-1] == 55
    assert chebyshev_U_at(PadicInt(11, 2, 3), 4).residue == 55


def test_recurrences_coefficient_level():
    for p, k in ((5, 3), (13, 2)):
        ts = [chebyshev_T(n, p, k) for n in range(-1, 201)]
        us = [chebyshev_U(n, p, k) for n in range(-1, 201)]
        for n in range(2, 201):
            assert ts[n + 1] == ts[n].shift_x() - ts[n - 1]
            assert us[n + 1] == us[n].shift_x() - us[n - 1]


def test_symmetries():
    # negative indices come from the backward recurrence, so these compare
    # two independent computations
    p, k = 7, 2
    for n in range(201):
        assert chebyshev_T(-n, p, k) == chebyshev_T(n, p, k)
        assert chebyshev_U(-n - 2, p, k) == chebyshev_U(n, p, k) * (-1)


def test_backward_recurrence_by_hand():
    # f_{N-2} = x f_{N-1} - f_N from (f_{-1}, f_0), unrolled by hand:
    # U: 0, 1 -> U_{-2} = -1, U_{-3} = -x, U_{-4} = -x^2 + 1, U_{-5} = -x^3 + 2x
    # T: x, 2 -> T_{-2} = x^2 - 2, T_{-3} = x^3 - 3x, T_{-4} = x^4 - 4x^2 + 2,
    #    T_{-5} = x^5 - 5x^3 + 5x
    p, k = 7, 3
    m = p**k
    want_u = {-2: (-1,), -3: (0, -1), -4: (1, 0, -1), -5: (0, 2, 0, -1)}
    want_t = {
        -2: (-2, 0, 1),
        -3: (0, -3, 0, 1),
        -4: (2, 0, -4, 0, 1),
        -5: (0, 5, 0, -5, 0, 1),
    }
    for n in range(-5, -1):
        u = _cheb_family(n, p, k, [], [1])
        t = _cheb_family(n, p, k, [0, 1], [2])
        assert u.coeffs == tuple(c % m for c in want_u[n])
        assert t.coeffs == tuple(c % m for c in want_t[n])
        assert u == chebyshev_U(n, p, k) and t == chebyshev_T(n, p, k)
    assert _cheb_family(-1, p, k, [0, 1], [2]).coeffs == (0, 1)


def test_degree_cap(monkeypatch):
    # T_n has degree |n|; U_n has degree n, or -n - 2 below -1.  The indices
    # past the cap are refused before any work
    for n in (10_001, -10_001):
        with pytest.raises(ValueError, match="cap"):
            chebyshev_T(n, 5, 1)
    for n in (10_001, -10_003):
        with pytest.raises(ValueError, match="cap"):
            chebyshev_U(n, 5, 1)
    # the same boundaries under a small cap, where the last admitted
    # polynomials are cheap to build
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 40)
    for n in (40, -40):
        assert chebyshev_T(n, 5, 1).degree == 40
    for n in (40, -42):
        assert chebyshev_U(n, 5, 1).degree == 40
    for n in (41, -41):
        with pytest.raises(ValueError, match="cap"):
            chebyshev_T(n, 5, 1)
    for n in (41, -43):
        with pytest.raises(ValueError, match="cap"):
            chebyshev_U(n, 5, 1)


def test_companion_power_examples():
    p, k = 11, 2
    x = PadicInt(p, k, 3)
    assert companion_power(x, 0).congruent_to(Mat2.identity(p, k))
    c1 = companion_power(x, 1)
    assert [e.residue for e in c1.entries()] == [3, (-1) % 121, 1, 0]
    # oracle: four explicit multiplications
    m = Mat2.identity(p, k)
    for _ in range(4):
        m = m @ companion(x)
    c4 = companion_power(x, 4)
    assert c4.congruent_to(m)
    assert [e.residue for e in c4.entries()] == [55, (-21) % 121, 21, (-8) % 121]


@st.composite
def _companion_cases(draw):
    p = draw(st.sampled_from((5, 7, 11, 13, 199, 1447)))
    k = draw(st.integers(1, 6))
    x = PadicInt(p, k, draw(st.integers(0, p**k - 1)))
    return x, draw(st.integers(0, 299)), draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(_companion_cases(), st.integers(-10**6, -1))
def test_companion_power_kernel_properties(case, negative):
    x, n, a, b = case
    p, k = x.prime, x.precision
    # oracle: the repeated PadicInt product C(x) @ ... @ C(x)
    m = Mat2.identity(p, k)
    for _ in range(n):
        m = m @ companion(x)
    assert companion_power(x, n).entries() == m.entries()
    ca, cb = companion_power(x, a), companion_power(x, b)
    assert (ca @ cb).entries() == companion_power(x, a + b).entries()
    assert ca.det() == PadicInt(p, k, 1)
    with pytest.raises(ValueError, match="negative"):
        companion_power(x, negative)


def test_companion_entries_match_U_formula():
    # oracle: the scalar recurrence u_n = x u_{n-1} - u_{n-2}
    rng = random.Random(5)
    p, k = 13, 2
    for _ in range(50):
        x = PadicInt(p, k, rng.randrange(p**k))
        m = Mat2.identity(p, k)
        c = companion(x)
        u = [PadicInt(p, k, -1), PadicInt(p, k, 0), PadicInt(p, k, 1)]  # U_{-2..0}
        for n in range(201):
            want = (u[n + 2], -u[n + 1], u[n + 1], -u[n])
            assert m.entries() == want
            assert m.det().residue == 1
            m = m @ c
            u.append(x * u[-1] - u[-2])
        for n in (0, 1, 57, 200):
            assert companion_power(x, n).entries() == (
                u[n + 2],
                -u[n + 1],
                u[n + 1],
                -u[n],
            )


def test_trace_is_T():
    p, k = 7, 3
    for r in range(7):
        x = PadicInt(p, k, r)
        assert chebyshev_T_at(x, 9) == chebyshev_T(9, p, k)(x)


def companion_derivative(x: PadicInt, n: int, step: int | None = None) -> Mat2:
    """(C^n)'(x) modulo p^step, by an exact p-adic finite difference.

    Entries of C(x)^n are integer polynomials, so the forward difference
    (C_n(x + p^m) - C_n(x)) / p^m equals the derivative modulo p^m exactly.
    Requires precision >= 2*step + 1.
    """
    m = step if step is not None else (x.precision - 1) // 2
    if m < 1 or x.precision < 2 * m + 1:
        raise ValueError(
            f"precision {x.precision} insufficient for difference step {m}"
        )
    shifted = PadicInt(x.prime, x.precision, x.residue + x.prime**m)
    ahead, here = companion_power(shifted, n), companion_power(x, n)
    diff = (a - b for a, b in zip(ahead.entries(), here.entries()))
    return Mat2(*(e.div_p_power(m).truncate(m) for e in diff))


def companion_derivative_formula(x: PadicInt, n: int) -> Mat2:
    """(C^n)'(x) from the closed trace/entry formula; needs x != +-2 mod p."""
    p, k = x.prime, x.precision
    disc = x * x - 4
    if not disc.is_unit():
        raise ValueError("closed formula needs x not congruent to +-2 mod p")
    w = disc.invert()
    t_next = chebyshev_T_at(x, n + 1)
    t_cur = chebyshev_T_at(x, n)
    t_prev = chebyshev_T_at(x, n - 1)
    u_prev = chebyshev_U_at(x, n - 1)
    first = Mat2(t_next, -t_cur, t_cur, -t_prev).scale(w * n)
    two = PadicInt(p, k, 2)
    second = Mat2(-two, x, -x, two).scale(w * u_prev)
    return first + second


def companion_derivative_border(x_sign: int, n: int, p: int, k: int) -> Mat2:
    """(C^n)'(+-2) from the binomial-coefficient formula."""
    if x_sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    sign = 1 if x_sign == 1 else (-1) ** (n + 1)
    b3 = math.comb(n + 2, 3)
    b2 = math.comb(n + 1, 3)
    b1 = math.comb(n, 3)
    m = Mat2(
        PadicInt(p, k, b3),
        PadicInt(p, k, -x_sign * b2),
        PadicInt(p, k, x_sign * b2),
        PadicInt(p, k, -b1),
    )
    return m.scale(sign)


def test_derivative_finite_difference_vs_border_formula():
    p, k = 7, 5
    d = companion_derivative(PadicInt(p, k, 2), 3, step=2)
    want = companion_derivative_border(1, 3, p, 2)
    assert d.congruent_to(want, 2)
    assert [e.residue for e in d.entries()] == [10, (-4) % 49, 4, (-1) % 49]
    dm = companion_derivative(PadicInt(p, k, p**k - 2), 3, step=2)
    wm = companion_derivative_border(-1, 3, p, 2)
    assert dm.congruent_to(wm, 2)


def test_derivative_finite_difference_vs_closed_formula():
    p = 7
    x = PadicInt(p, 5, 1)
    d = companion_derivative(x, 6, step=2)
    want = companion_derivative_formula(x.truncate(2), 6)
    assert d.congruent_to(want, 2)


def test_derivative_of_constant_is_zero():
    d = companion_derivative(PadicInt(5, 5, 3), 0, step=2)
    assert all(e.residue == 0 for e in d.entries())


def test_derivative_precision_guard():
    with pytest.raises(ValueError, match="insufficient"):
        companion_derivative(PadicInt(5, 2, 3), 4, step=1)


def test_fixed_point_examples():
    assert fixed_point_Tp(PadicInt(7, 4, 2)).residue == 2
    assert fixed_point_Tp(PadicInt(7, 4, 0)).residue == 0
    # oracle: evaluate T_7(1) by the recurrence: lambda of order 6 divides 7-1
    t = [2, 1]
    for _ in range(6):
        t.append(1 * t[-1] - t[-2])
    assert t[7] % 7**4 == 1
    assert fixed_point_Tp(PadicInt(7, 4, 1)).residue == 1


def test_fixed_point_idempotent():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice((5, 7, 13))
        x = PadicInt(p, 4, rng.randrange(p**4))
        f = fixed_point_Tp(x)
        assert fixed_point_Tp(f) == f
        assert f.residue % p == x.residue % p
        assert chebyshev_T_at(f, p) == f


def test_rotation_order_examples():
    # oracle: direct multiplication, no smaller divisor works
    c = companion(PadicInt(7, 2, 1))
    m = Mat2.identity(7, 2)
    orders = []
    for n in range(1, 7):
        m = m @ c
        if m.congruent_to(Mat2.identity(7, 2)):
            orders.append(n)
    assert orders == [6]
    assert rotation_order(fixed_point_Tp(PadicInt(7, 2, 1))) == 6
    assert rotation_order(fixed_point_Tp(PadicInt(5, 2, 0))) == 4
    with pytest.raises(ValueError, match="unipotent"):
        rotation_order(PadicInt(5, 2, 23))


def test_rotation_order_branch_independent():
    # the eigenvalue lambda solving l^2 - x1*l + 1 = 0 has the same
    # multiplicative order on either square-root branch of x1^2 - 4
    from markoff_padic.padic import legendre, sqrt

    def divisors(n):
        out = [d for d in range(1, n + 1) if n % d == 0]
        return out

    p, k = 13, 3
    pk = p**k
    half = (p * p - 1) // 2
    for r in range(p):
        if r in (2, p - 2):
            continue
        x1 = fixed_point_Tp(PadicInt(p, k, r))
        disc = x1 * x1 - 4
        if legendre(disc) != 1:
            continue
        s = sqrt(disc)
        inv2 = PadicInt(p, k, 2).invert()
        branches = [(x1 + s) * inv2, (x1 - s) * inv2]
        orders = [
            next(d for d in divisors(half) if pow(lam.residue, d, pk) == 1)
            for lam in branches
        ]
        assert orders[0] == orders[1] == rotation_order(x1)


def test_power_sum_identity():
    for p in (3, 5, 7, 11, 13):
        rep = verify_power_sum_identity(p, 3)
        assert rep["passed"], rep
    assert verify_power_sum_identity(7, 1)["frobenius_mod_p"]


def test_families_refuse_a_modulus_outside_the_hypotheses():
    # a composite or even p, or K < 1, is a usage error, never a failed identity
    for p in (1, 2, 4, 9, 15):
        for family in (chebyshev_T, chebyshev_U):
            with pytest.raises(ValueError, match="odd prime"):
                family(4, p, 3)
        with pytest.raises(ValueError, match="odd prime"):
            verify_power_sum_identity(p, 3)
    for k in (0, -1):
        for family in (chebyshev_T, chebyshev_U):
            with pytest.raises(ValueError, match="precision must be >= 1"):
                family(4, 7, k)


def test_companion_estimates_paper_example():
    # C(2)^10 = I + 5[[2,-2],[2,-2]] mod 25, independent of u
    p, k = 5, 3
    for u in (0, 3):
        arg = PadicInt(p, k, 2 + p * u)
        got = companion_power(arg, 10)
        want = Mat2.identity(p, k) + Mat2(
            PadicInt(p, k, 2),
            PadicInt(p, k, -2),
            PadicInt(p, k, 2),
            PadicInt(p, k, -2),
        ).scale(p)
        assert got.congruent_to(want, 2)


def test_companion_estimates_vanishing_correction():
    # x0 = 1 is already the fixed point at p = 7, so C(1)^24 = I mod 49
    got = companion_power(PadicInt(7, 3, 1), 24)
    assert got.congruent_to(Mat2.identity(7, 3), 2)


def test_companion_estimates_sampled():
    rng = random.Random(23)
    for p in (5, 7):
        k = 3
        us = list(range(p)) + [rng.randrange(p * p) for _ in range(20)]
        for x0 in range(p):
            rep = verify_companion_estimates(PadicInt(p, k, x0), us)
            assert rep["passed"], rep


def companion_estimates_reference(x0: PadicInt, sample_us) -> dict:
    """``verify_companion_estimates`` in PadicInt/Mat2 arithmetic.

    Builds I + S d and I + S dp per sample and computes C^{pn} as its own
    power; T_p's fixed point is read through the module, so a test may
    replace it.
    """
    p, k = x0.prime, x0.precision
    ident, two = Mat2.identity(p, k), PadicInt(p, k, 2)
    parabolic = x0.residue % p in (2, p - 2)
    if parabolic:
        n, slope = 2 * p, Mat2(two, -x0, x0, -two)
    else:
        n = (p * p - 1) // 2
        slope = Mat2(x0, -two, two, -x0).scale((x0 * x0 - 4).invert() * n)
        offset = x0 - chebyshev.fixed_point_Tp(x0)
    samples = []
    for u in sample_us:
        uu = x0._coerce(u)
        shift = uu.mul_p_power(1)
        arg, drift = x0 + shift, p if parabolic else offset + shift
        ok1 = companion_power(arg, n).congruent_to(ident + slope.scale(drift), 2)
        ok2 = companion_power(arg, p * n).congruent_to(ident + slope.scale(drift * p), 3)
        samples.append({"u": uu.residue, "mod_p2": ok1, "mod_p3": ok2})
    return {
        "p": p,
        "x0": x0.residue,
        "class": "parabolic" if parabolic else "generic",
        "samples": samples,
        "passed": all(s["mod_p2"] and s["mod_p3"] for s in samples),
    }


@st.composite
def _estimate_cases(draw):
    p = draw(st.sampled_from((5, 7, 11, 13, 31, 101)))
    k = draw(st.integers(3, 6))
    x0 = PadicInt(p, k, draw(st.integers(0, p**k - 1)))
    ints = draw(st.lists(st.integers(-2 * p**k, 2 * p**k), min_size=1, max_size=4))
    padics = [
        PadicInt(p, j, draw(st.integers(0, p**j - 1)))
        for j in draw(st.lists(st.integers(2, k), max_size=3))
    ]
    return x0, draw(st.permutations(ints + padics)), draw(st.integers(0, 10**4))


@pytest.mark.parametrize("fixed_point", ["T_p", "identity"])
@settings(max_examples=200, deadline=None)
@given(_estimate_cases())
def test_companion_estimates_match_the_reference(fixed_point, case):
    # with T_p's fixed point taken as x0 itself the generic drift is wrong,
    # so failing samples are compared too
    x0, us, n = case
    p, M = x0.prime, x0.modulus
    with pytest.MonkeyPatch.context() as mp:
        if fixed_point == "identity":
            mp.setattr(chebyshev, "fixed_point_Tp", lambda x: x)
        assert verify_companion_estimates(x0, us) == companion_estimates_reference(x0, us)
    c = (x0.residue, M - 1, 1, 0)
    assert _mat_power(_mat_power(c, n, M), p, M) == _mat_power(c, p * n, M)


def test_companion_estimates_refuse_a_bad_sample():
    x0 = PadicInt(7, 3, 1)
    with pytest.raises(TypeError, match="1.5"):
        verify_companion_estimates(x0, [1.5])
    with pytest.raises(ValueError, match="prime mismatch"):
        verify_companion_estimates(x0, [0, PadicInt(5, 3, 1)])
    # p*u of a one-digit u is known to two digits, short of the mod-p^3 check
    with pytest.raises(ValueError, match="level 3 exceeds available precision 2"):
        verify_companion_estimates(x0, [PadicInt(7, 1, 1)])


def test_companion_estimates_precision_guard():
    with pytest.raises(ValueError, match="precision"):
        verify_companion_estimates(PadicInt(5, 2, 1), [0])
    # at p = 3 the parabolic estimate fails, so the lemma is refused there
    with pytest.raises(ValueError, match="p > 3"):
        verify_companion_estimates(PadicInt(3, 3, 2), [0])
