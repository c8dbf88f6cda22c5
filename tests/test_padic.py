"""Exact-arithmetic core: examples with independent oracles, then laws."""

import itertools
import random

import pytest

from markoff_padic import padic
from markoff_padic.padic import (
    PadicInt,
    legendre,
    newton_solve,
    poly_eval,
    residue_of,
    sqrt,
    valuation_str,
)


def test_add_example():
    assert (PadicInt(7, 3, 10) + PadicInt(7, 3, 340)).residue == 7


def test_mul_min_precision_rule():
    out = PadicInt(7, 3, 5) * PadicInt(7, 2, 10)
    assert (out.precision, out.residue) == (2, 1)


def test_sub_self_is_zero():
    a = PadicInt(11, 4, 12345)
    assert (a - a).residue == 0 and (a - a).precision == 4


def test_prime_mismatch():
    with pytest.raises(ValueError, match="prime mismatch"):
        PadicInt(7, 2, 1) + PadicInt(11, 2, 1)


def test_a_value_of_another_type_is_named():
    # the methods that take a value name it; the operators leave it to Python
    a = PadicInt(7, 3, 1)
    with pytest.raises(TypeError, match="1.5 is neither an int nor a PadicInt"):
        a.congruent_to(1.5)
    with pytest.raises(TypeError, match="1.5 is neither an int nor a PadicInt"):
        newton_solve([1.5, 1], a)
    with pytest.raises(TypeError, match="unsupported operand"):
        a + 1.5
    assert a.congruent_to(8, 1) and newton_solve([-1, 1], a).residue == 1


def test_residue_of():
    # an int is reduced at any modulus, a PadicInt only over its own prime
    # and within its precision
    assert residue_of(-1, 7, 2) == 48 and residue_of(5, 9, 1) == 5
    assert residue_of(PadicInt(7, 3, 100), 7, 2) == 100 % 49
    with pytest.raises(ValueError, match="prime mismatch"):
        residue_of(PadicInt(5, 3, 7), 7, 1)
    with pytest.raises(ValueError, match="level 3 exceeds precision 2"):
        residue_of(PadicInt(7, 2, 1), 7, 3)


def test_rejects_two_and_composites():
    for bad in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            PadicInt(bad, 2, 0)


def test_valuation_examples():
    assert PadicInt(5, 3, 50).valuation() == 2
    assert PadicInt(5, 3, 3).valuation() == 0
    zero = PadicInt(5, 3, 0)
    assert zero.valuation() == 3 and valuation_str(zero) == ">=3"


def test_invert_against_extended_euclid():
    # oracle: extended Euclid for 3^-1 mod 49
    def extgcd(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = extgcd(b, a % b)
        return g, y, x - (a // b) * y

    g, x, _ = extgcd(3, 49)
    assert g == 1 and x % 49 == 33
    assert PadicInt(7, 2, 3).invert().residue == 33
    assert PadicInt(7, 2, 1).invert().residue == 1
    with pytest.raises(ValueError, match="not invertible"):
        PadicInt(7, 2, 7).invert()


def test_invert_exhaustive_small_moduli():
    # every unit mod p^K for p^K <= 10^4
    for p, k in ((5, 4), (7, 3), (13, 2), (97, 1), (3, 7)):
        pk = p**k
        assert pk <= 10**4
        for r in range(1, pk):
            if r % p == 0:
                continue
            a = PadicInt(p, k, r)
            assert (a * a.invert()).residue == 1


def test_div_p_power():
    a = PadicInt(5, 3, 50)
    assert (a.div_p_power(1).precision, a.div_p_power(1).residue) == (2, 10)
    assert (a.div_p_power(2).precision, a.div_p_power(2).residue) == (1, 2)
    with pytest.raises(ValueError, match="not divisible"):
        PadicInt(5, 3, 3).div_p_power(1)


def test_div_mul_p_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((3, 5, 7, 11))
        k = rng.randrange(2, 6)
        m = rng.randrange(1, k)
        a = PadicInt(p, k - m, rng.randrange(p ** (k - m)))
        lifted = a.mul_p_power(m)
        back = lifted.div_p_power(m)
        assert back == a


def test_legendre_examples():
    assert legendre(PadicInt(13, 1, 9)) == 1
    # oracle: Euler criterion 3^3 = 27 = -1 mod 7
    assert pow(3, 3, 7) == 7 - 1
    assert legendre(PadicInt(7, 1, 3)) == -1
    assert legendre(PadicInt(7, 1, 0)) == 0


def test_sqrt_examples_with_exhaustive_oracle():
    assert sqrt(PadicInt(13, 1, 9)).residue == 3
    # oracle: exhaustive roots of 2 mod 49
    roots = [r for r in range(49) if r * r % 49 == 2]
    assert roots == [10, 39]
    s = sqrt(PadicInt(7, 2, 2))
    assert s.residue == 10 and s.residue % 7 == 3  # canonical branch: 3 <= 3
    with pytest.raises(ValueError, match="no square root"):
        sqrt(PadicInt(7, 1, 3))
    with pytest.raises(ValueError, match="no square root"):
        sqrt(PadicInt(7, 2, 7))


def test_sqrt_squares_back_and_is_deterministic():
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice((5, 7, 11, 13, 17))
        k = rng.randrange(1, 5)
        a = PadicInt(p, k, rng.randrange(1, p**k))
        if legendre(a) != 1:
            continue
        r = sqrt(a)
        assert (r * r).residue == a.residue
        assert 1 <= r.residue % p <= (p - 1) // 2
        assert sqrt(a) == r


def test_newton_solve_examples():
    # oracle: exhaustive roots of x^2 - 2 mod 343 in the class of 3 mod 7
    roots = [r for r in range(343) if (r * r - 2) % 343 == 0 and r % 7 == 3]
    assert roots == [108]
    r = newton_solve([-2, 0, 1], PadicInt(7, 3, 3))
    assert r.residue == 108
    assert newton_solve([-5, 1], PadicInt(11, 3, 5)).residue == 5
    with pytest.raises(ValueError, match="singular"):
        newton_solve([-7, 0, 1], PadicInt(7, 2, 0))


def test_newton_solve_reuses_the_first_evaluation(monkeypatch):
    # F(x0) and F'(x0) serve both the hypothesis checks and the first step,
    # so a solve costs 2 + 2*(steps - 1) evaluations, steps = (K-1).bit_length()
    calls = []

    def counted(coeffs, x):
        calls.append(x)
        return poly_eval(coeffs, x)

    monkeypatch.setattr(padic, "poly_eval", counted)
    for k, want, root in ((3, 4, 108), (5, 6, 4567)):
        calls.clear()
        assert newton_solve([-2, 0, 1], PadicInt(7, k, 3)).residue == root
        assert len(calls) == want


def test_newton_solve_uniqueness_exhaustive():
    # unique root in its mod-p class, exhaustive over p^K <= 10^4 cases
    rng = random.Random(99)
    for p, k in ((5, 4), (7, 3), (11, 3)):
        pk = p**k
        for _ in range(10):
            coeffs = [rng.randrange(pk) for _ in range(3)] + [1]
            for x0 in range(p):
                fx = sum(c * x0**i for i, c in enumerate(coeffs))
                dfx = sum(i * c * x0 ** (i - 1) for i, c in enumerate(coeffs) if i)
                if fx % p != 0 or dfx % p == 0:
                    continue
                root = newton_solve([PadicInt(p, k, c) for c in coeffs], PadicInt(p, k, x0))
                brute = [
                    r
                    for r in range(x0, pk, p)
                    if sum(c * r**i for i, c in enumerate(coeffs)) % pk == 0
                ]
                assert brute == [root.residue]


def test_ring_laws_sampled():
    rng = random.Random(31)
    for p, k in ((5, 4), (7, 3), (13, 2)):
        pk = p**k
        triples = [
            tuple(PadicInt(p, k, rng.randrange(pk)) for _ in range(3))
            for _ in range(60)
        ]
        for a, b, c in triples:
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_poly_eval_horner():
    x = PadicInt(7, 3, 5)
    assert poly_eval([1, 2, 3], x).residue == (1 + 2 * 5 + 3 * 25) % 343
