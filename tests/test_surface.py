"""Surface points, automorphism words, distance, reduction."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoff_padic.census import _decode, _encode, _lift, enumerate_points
from markoff_padic.chebyshev import companion_power
from markoff_padic.padic import PadicInt, newton_solve
from markoff_padic.polydisk import PolydiskChart
from markoff_padic.surface import (
    ALL_LETTERS,
    VIETA_LETTERS,
    AutWord,
    SurfacePoint,
    apply_generator,
    apply_letters,
    apply_word,
    dist,
    eval_P,
    is_point,
    lift_point,
    point,
    rotation,
    unit_partial,
)


def _padic(p, k, v):
    return PadicInt(p, k, v)


def newton_fiber(triple, D, p, k):
    """Reference for ``solve_fiber``: the solved coordinate mod p^k by Newton over the free two."""
    s = unit_partial(triple, p)
    coords = [_padic(p, k, int(c)) for c in triple]
    a, b = (c for i, c in enumerate(coords) if i != s)
    coords[s] = newton_solve([a * a + b * b - D, -(a * b), 1], coords[s])
    return [c.residue for c in coords]


def _random_points(p, k, D, n, seed):
    """Sample valid points by lifting brute-found mod-p triples."""
    rng = random.Random(seed)
    found = []
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if (x * x + y * y + z * z - x * y * z - D) % p == 0:
                    if (2 * x - y * z) % p or (2 * y - x * z) % p or (2 * z - x * y) % p:
                        found.append((x, y, z))
    rng.shuffle(found)
    return [lift_point(t, D, p, k) for t in found[:n]]


def test_eval_P_examples():
    p, k = 7, 3
    assert eval_P(_padic(p, k, 3), _padic(p, k, 3), _padic(p, k, 3)).residue == 0
    assert eval_P(_padic(p, k, 1), _padic(p, k, 1), _padic(p, k, 1)).residue == 2
    assert eval_P(_padic(p, k, 0), _padic(p, k, 0), _padic(p, k, 0)).residue == 0


def test_is_point_examples():
    p, k = 7, 2
    D = _padic(p, k, 0)
    triple = (_padic(p, k, 3), _padic(p, k, 3), _padic(p, k, 3))
    assert is_point(triple, D)
    origin = (_padic(p, k, 0), _padic(p, k, 0), _padic(p, k, 0))
    assert not is_point(origin, D)  # singular
    ones = (_padic(p, k, 1), _padic(p, k, 1), _padic(p, k, 1))
    assert not is_point(ones, D)  # equation fails


def test_generator_examples():
    pt = point(3, 3, 3, 0, 7, 3)
    assert apply_generator("sx", pt).residues() == (6, 3, 3)
    pt2 = point(1, 2, 3, 1 + 4 + 9 - 6, 7, 3)
    img = apply_generator("ex", pt2)
    assert img.residues() == (1, (-2) % 343, (-3) % 343)
    assert apply_generator("sx", apply_generator("sx", pt)).residues() == pt.residues()


def test_generators_preserve_equation_and_nonsingularity():
    for pt in _random_points(7, 3, 0, 10, seed=3) + _random_points(5, 3, 3, 5, seed=4):
        value = eval_P(*pt.coords())
        for g in ALL_LETTERS:
            img = apply_generator(g, pt).validate()
            assert eval_P(*img.coords()) == value


def test_word_composition_matches_companion_square():
    # the word (sy, sz) acts on (y, z) by C(x)^2
    for pt in _random_points(7, 3, 0, 8, seed=9):
        img = apply_word(AutWord(("sy", "sz")), pt)
        m = companion_power(pt.x, 2)
        wy, wz = m.apply((pt.y, pt.z))
        assert img.x == pt.x and img.y == wy and img.z == wz


def test_free_reduction_and_empty_word():
    pt = point(3, 3, 3, 0, 7, 3)
    assert apply_word(AutWord(()), pt).residues() == pt.residues()
    w = AutWord(("sx", "sx", "sy"))
    assert w.letters == ("sy",)
    assert apply_word(w, pt).residues() == apply_word(AutWord(("sy",)), pt).residues()


def test_word_text_roundtrip_and_inverse():
    w = AutWord.parse("sx sy pxy ez sz")
    assert str(w) == "sx sy pxy ez sz"
    assert AutWord.parse(str(w)) == w
    pt = point(3, 3, 3, 0, 7, 4)
    back = apply_word(w.inverse(), apply_word(w, pt))
    assert back.residues() == pt.residues()


def test_gamma_only_flag_and_rejection():
    assert AutWord(("sx", "sy")).gamma_only
    w = AutWord(("sx", "pxy"))
    assert not w.gamma_only
    pt = point(3, 3, 3, 0, 7, 3)
    with pytest.raises(ValueError, match="Vieta"):
        apply_word(w, pt, gamma_only=True)


def test_word_power_and_unknown_letter():
    assert AutWord(("sy", "sz")).power(3).letters == ("sy", "sz") * 3
    with pytest.raises(ValueError, match="unknown generator"):
        AutWord(("qq",))
    # a stabilizer power is one run, whatever its length
    w = rotation("y", 10**12)
    assert w.runs == ((("sz", "sx"), 2 * 10**12),) and len(w) == 2 * 10**12
    assert w.inverse().runs == ((("sx", "sz"), 2 * 10**12),)
    assert (w * w.inverse()).runs == () and w.power(-1) == w.inverse()


# -- run-length words against a letter-level reference ------------------------

_VIETA_PAIRS = [(a, b) for a in VIETA_LETTERS for b in VIETA_LETTERS if a != b]


def _reduce_letters(letters):
    out = []
    for g in letters:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _greedy_runs(letters):
    """Maximal alternating Vieta blocks taken from the left; other letters alone."""
    runs, i = [], 0
    while i < len(letters):
        j = i + 1
        if letters[i] in VIETA_LETTERS and j < len(letters) and letters[j] in VIETA_LETTERS:
            j += 1
            while j < len(letters) and letters[j] == letters[j - 2]:
                j += 1
            runs.append(((letters[i], letters[i + 1]), j - i))
        else:
            runs.append(((letters[i],), 1))
        i = j
    return tuple(runs)


def _letter_words(max_run):
    """Letter tuples mixing single generators and alternating Vieta blocks of any parity."""
    block = st.tuples(st.sampled_from(_VIETA_PAIRS), st.integers(1, max_run)).map(
        lambda t: (t[0] * t[1])[: t[1]]
    )
    piece = st.one_of(st.sampled_from(ALL_LETTERS).map(lambda g: (g,)), block)
    return st.lists(piece, max_size=6).map(lambda ps: sum(ps, ()))


def _check_word(w, letters):
    reduced = _reduce_letters(letters)
    assert w.letters == reduced and len(w) == len(reduced)
    assert w.runs == _greedy_runs(reduced)
    assert str(w) == " ".join(reduced) and AutWord.parse(str(w)) == w
    assert w.gamma_only == all(g in VIETA_LETTERS for g in reduced)


@settings(max_examples=200, deadline=None)
@given(_letter_words(9), _letter_words(9), st.integers(-4, 5))
def test_run_words_match_the_letter_reference(a, b, n):
    u, v = AutWord(a), AutWord(b)
    _check_word(u, a)
    _check_word(u * v, u.letters + v.letters)
    assert u * v == AutWord(a + b)
    _check_word(u.inverse(), tuple(reversed(u.letters)))
    base = u.letters if n >= 0 else tuple(reversed(u.letters))
    _check_word(u.power(n), base * abs(n))


@st.composite
def _mixed_word_and_point(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    K = draw(st.integers(1, 4))
    coords = [
        PadicInt(p, draw(st.integers(1, K)), draw(st.integers(0, p**K - 1)))
        for _ in range(3)
    ]
    pt = SurfacePoint(*coords, eval_P(*coords))
    return AutWord(draw(_letter_words(3 * p * p))), pt


@settings(max_examples=60, deadline=None)
@given(_mixed_word_and_point())
def test_apply_word_matches_apply_letters(case):
    # each run as one companion power against one generator at a time, with
    # coordinates of mixed precision
    word, pt = case
    fast, slow = apply_word(word, pt), apply_letters(word, pt)
    for a, b in zip(fast.coords() + (fast.D,), slow.coords() + (slow.D,)):
        assert (a.residue, a.precision) == (b.residue, b.precision)


def test_dist_classes():
    p, k = 7, 3
    a = point(3, 3, 3, 0, p, k)
    assert str(dist(a, a)) == "<=p^-3"
    assert dist(a, a).indistinguishable
    b = apply_generator("sx", a)  # (6,3,3): differs at digit 0
    assert dist(a, b).exponent == 0 and str(dist(a, b)) == "1"


def test_dist_ultrametric_and_isometry():
    rng = random.Random(11)
    pts = _random_points(7, 3, 0, 12, seed=21)
    for _ in range(40):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert dist(a, c).exponent >= min(dist(a, b).exponent, dist(b, c).exponent)
    letters = list(ALL_LETTERS)
    for _ in range(40):
        a, b = rng.choice(pts), rng.choice(pts)
        w = AutWord(tuple(rng.choice(letters) for _ in range(rng.randrange(7))))
        assert dist(apply_word(w, a), apply_word(w, b)).exponent == dist(a, b).exponent


def test_dist_class_ordering():
    from markoff_padic.surface import DistClass

    d0, d1, dk = DistClass(0, 3), DistClass(1, 3), DistClass(3, 3)
    assert dk < d1 < d0
    assert sorted([d0, dk, d1]) == [dk, d1, d0]


def test_reduce_examples_and_word_commutation():
    p, k = 7, 2
    pt = point(3, 3, 3, 0, p, k)
    assert pt.residues(2) == pt.residues()
    lifted = lift_point((1, 4, 1), 0, 7, 2)
    assert lifted.residues(1) == (1, 4, 1)
    with pytest.raises(ValueError, match="exceeds"):
        pt.residues(3)
    # the precision includes D's: coordinates at 3 digits over D at 2 stop at 2
    low_d = SurfacePoint(*(_padic(p, 3, 3) for _ in range(3)), _padic(p, 2, 0))
    assert low_d.residues(2) == (3, 3, 3)
    with pytest.raises(ValueError, match="level 3 exceeds precision 2"):
        low_d.residues(3)
    rng = random.Random(77)
    pts = _random_points(7, 3, 0, 10, seed=31)
    letters = list(ALL_LETTERS)
    for _ in range(100):
        a = rng.choice(pts)
        w = AutWord(tuple(rng.choice(letters) for _ in range(rng.randrange(6))))
        img = apply_word(w, a)
        # reduction commutes with the action: generators are integer maps
        low = lift_point(a.residues(1), 0, 7, 1)
        assert img.residues(1) == apply_word(w, low).residues(1)


def test_lift_point_validates_and_respects_solved():
    pt = lift_point((1, 4, 1), 0, 7, 4)
    assert pt.residues(1) == (1, 4, 1)
    assert eval_P(*pt.coords()).residue == 0
    with pytest.raises(ValueError, match="singular"):
        lift_point((0, 0, 0), 0, 7, 2)
    with pytest.raises(ValueError, match="singular"):
        unit_partial((0, 0, 0), 7)


@st.composite
def _fiber_cases(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    k = draw(st.sampled_from((2, 3)))
    D = draw(st.integers(0, p**k - 1))
    base = enumerate_points(p, 1, D % p)
    assume(len(base) > 0)
    code = base[draw(st.integers(0, len(base) - 1))]
    return p, k, D, tuple(int(c) for c in _decode(code, p))


@settings(max_examples=40, deadline=None)
@given(_fiber_cases())
def test_lift_point_lands_in_the_lifted_census(case):
    # Newton's fiber solve, lift_point's reference, lands in the census
    # numpy lift of its fiber
    p, k, D, t = case
    solved = newton_fiber(t, D, p, k)
    assert [c % p for c in solved] == list(t)
    code = _encode(*solved, p**k)
    lifted = _lift(np.array([_encode(*t, p)]), p, k, D)
    i = np.searchsorted(lifted, code)
    assert i < len(lifted) and lifted[i] == code
    units = [j for j, d in enumerate(lift_point(t, D, p, k).partials()) if d.is_unit()]
    assert unit_partial(t, p) == units[0]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11, 13, 101)),
    st.integers(1, 12),
    st.integers(-(10**30), 10**30),
    st.data(),
)
def test_lift_point_and_xi_are_the_newton_root(p, k, D, data):
    # the digit step and Newton reach the one root Hensel allows, whichever
    # coordinate is solved and with the free ones given to up to k digits
    base = enumerate_points(p, 1, D % p)
    assume(len(base))
    t = [int(c) for c in _decode(base[data.draw(st.integers(0, len(base) - 1))], p)]
    s = unit_partial(t, p)
    digits = data.draw(st.integers(1, k))
    triple = [c if i == s else c + p * data.draw(st.integers(0, p ** (digits - 1) - 1))
              for i, c in enumerate(t)]
    want = newton_fiber(triple, D, p, k)
    assert [c.residue for c in lift_point(triple, D, p, k).coords()] == want
    # a chart solves x: swap the solved coordinate there (P is symmetric)
    for v in (t, triple, want):
        v[0], v[s] = v[s], v[0]
    chart = PolydiskChart(lift_point(t, D, p, k))
    assert chart.xi(*(_padic(p, k, c) for c in triple[1:])) == _padic(p, k, want[0])


def test_generator_orders():
    pt = point(3, 3, 3, 0, 7, 3)
    for g in ALL_LETTERS:
        twice = apply_generator(g, apply_generator(g, pt))
        assert twice.residues() == pt.residues()
