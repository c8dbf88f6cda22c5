"""Charts, the implicit coordinate, and the stabilizer expansion lemmas."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoff_padic import certify, polydisk
from markoff_padic.census import _decode, enumerate_points
from markoff_padic.chebyshev import chebyshev_T_at, fixed_point_Tp
from markoff_padic.padic import PadicInt, legendre, sqrt
from markoff_padic.polydisk import (
    PolydiskChart,
    _default_samples,
    parametrize,
    recentre,
    verify_expansions,
    verify_stabilizer_expansions,
    verify_xi_expansion,
)
from markoff_padic.surface import (
    AutWord,
    SurfacePoint,
    apply_generator,
    eval_P,
    gradient,
    lift_point,
    point,
    unit_partial,
)


def _chart733():
    return parametrize(point(3, 3, 3, 0, 7, 3))


def _chart_p5_exceptional(k=4):
    s = sqrt(PadicInt(5, k, 3 - 4))
    pt = SurfacePoint(s, PadicInt(5, k, 2), PadicInt(5, k, 0), PadicInt(5, k, 3))
    return parametrize(pt.validate())


def test_parametrize_seed_and_unit_partial():
    ch = _chart733()
    assert ch.psi(*ch.uv(0, 0)).residues() == (3, 3, 3)
    assert ch.partial.residue % 7 == (2 * 3 - 9) % 7  # -3, a unit


def test_parametrize_rejects_singular_direction():
    # (4,1,1) mod 7 has dP/dx = 0 but dP/dy a unit
    pt = lift_point((4, 1, 1), 0, 7, 3)
    with pytest.raises(ValueError, match="no chart"):
        parametrize(pt)
    parametrize(apply_generator("pxy", pt))  # the transpose charts


def test_psi_lies_on_surface_exhaustive_and_random():
    ch = _chart733()
    for u in range(7):
        for v in range(7):
            q = ch.psi(*ch.uv(u, v))
            assert eval_P(*q.coords()).residue == 0
            assert ch.contains(q)
    rng = random.Random(3)
    for _ in range(100):
        q = ch.psi(*ch.uv(rng.randrange(49), rng.randrange(49)))
        assert eval_P(*q.coords()).residue == 0


def test_chart_roundtrip():
    ch = _chart733()
    rng = random.Random(5)
    for _ in range(100):
        u, v = rng.randrange(49), rng.randrange(49)
        uu, vv = ch.uv(u, v)
        got_u, got_v = ch.psi_inv(ch.psi(uu, vv))
        assert got_u == uu and got_v == vv


def test_xi_refuses_a_point_off_the_polydisk():
    ch = _chart733()  # base (3, 3, 3) mod 7
    for y, z in ((4, 3), (3, 11)):
        with pytest.raises(ValueError, match="leaves polydisk"):
            ch.xi(PadicInt(7, 3, y), PadicInt(7, 3, z))
    assert ch.xi(PadicInt(7, 3, 10), PadicInt(7, 3, 3)).residue % 7 == 3


@st.composite
def _mod_p_points(draw):
    """A nonsingular point mod p, half the time one whose dP/dx vanishes."""
    p = draw(st.sampled_from((5, 7, 11)))
    D = draw(st.integers(0, p**3 - 1))
    x_singular = draw(st.booleans())
    pts = [
        t
        for t in zip(*(c.tolist() for c in _decode(enumerate_points(p, 1, D % p), p)))
        if (gradient(*t)[0] % p == 0) == x_singular
    ]
    assume(pts)
    uv = (draw(st.integers(0, p * p - 1)), draw(st.integers(0, p * p - 1)))
    return p, D, draw(st.sampled_from(pts)), uv


@settings(max_examples=60, deadline=None)
@given(_mod_p_points())
def test_chart_other_solved_coordinates(case):
    # charts solve x: a base whose dP/dx vanishes has no chart, and the
    # transposition bringing its first unit partial to x orients it
    p, D, t, uv = case
    pt = lift_point(t, D, p, 3)
    perm = (None, "pxy", "pzx")[unit_partial(t, p)]
    if perm is not None:
        with pytest.raises(ValueError, match="no chart"):
            parametrize(pt)
        pt = apply_generator(perm, pt)
    ch = parametrize(pt)
    u, v = ch.uv(*uv)
    q = ch.psi(u, v)
    assert q.validate() and ch.contains(q)
    assert ch.psi_inv(q) == (u, v)
    assert verify_xi_expansion(ch)["passed"]


def test_xi_expansion_slopes_example():
    # at (3,3,3): -dPy/dPx = -(6-9)/(6-9) = -1 and symmetrically for z
    ch = _chart733()
    dP = ch.base.partials()
    slope = -dP[1] * ch.partial.invert()
    assert slope.residue == 343 - 1
    assert verify_xi_expansion(ch)["passed"]


def test_chart_apply_stabilizers():
    # x0 = 3 != +-2 mod 7: (sy sz)^{(p^2-1)/4} stabilizes the polydisk
    ch = _chart733()
    w = AutWord(("sy", "sz")).power((49 - 1) // 4)
    out = ch.apply_word_uv(w, ch.uv(1, 2))
    assert len(out) == 2
    # x0 = 2 mod 5 parabolic: (sy sz)^p stabilizes
    ch5 = _chart_p5_exceptional()
    ch5.apply_word_uv(AutWord(("sy", "sz")).power(5), ch5.uv(0, 0))


def test_chart_apply_rejects_non_stabilizing_word():
    ch = _chart733()
    with pytest.raises(ValueError, match="leaves polydisk"):
        ch.apply_word_uv(AutWord(("sy",)), ch.uv(0, 0))


def test_chart_apply_empty_word_is_identity():
    ch = _chart733()
    u, v = ch.uv(4, 6)
    assert ch.apply_word_uv(AutWord(()), (u, v)) == (u, v)


def test_chart_apply_composes():
    ch = parametrize(apply_generator("pxy", lift_point((4, 1, 1), 0, 7, 4)))
    w1 = AutWord(("sz", "sx")).power(12)
    w2 = AutWord(("sy", "sz")).power(12)
    uv = ch.uv(2, 3)
    combined = ch.apply_word_uv(w2 * w1, uv)
    stepwise = ch.apply_word_uv(w2, ch.apply_word_uv(w1, uv))
    assert combined == stepwise


def test_recentre():
    pt = lift_point((1, 4, 1), 0, 7, 4)
    ch = recentre(parametrize(pt))
    assert chebyshev_T_at(ch.base.y, 7) == ch.base.y
    assert chebyshev_T_at(ch.base.z, 7) == ch.base.z
    assert ch.base.residues(1) == (1, 4, 1)
    again = recentre(ch)
    assert again.base.residues() == ch.base.residues()
    # p=7, y0 = 1: T_7-fixed point of that disk is 1 itself
    assert fixed_point_Tp(PadicInt(7, 4, 1)).residue == 1
    assert ch.base.z.residue == 1
    with pytest.raises(ValueError, match="border"):
        recentre(_chart_p5_exceptional())  # y0 = 2


def test_parab_f_expansion_p5_exceptional():
    ch = _chart_p5_exceptional()
    rep = verify_stabilizer_expansions(ch, "parab-f")
    assert rep["passed"]
    # frozen translation vector: (dPy, -dPz) at (s,2,0) is (4, 2s) mod 5
    s = ch.base.x.residue % 5
    word = AutWord(("sy", "sz")).power(5)
    img = ch.apply_word_uv(word, ch.uv(0, 0))
    assert (img[0].residue % 5, img[1].residue % 5) == (4, (2 * s) % 5)


def test_parab_f_hypothesis_error():
    ch = _chart733()
    with pytest.raises(ValueError, match="x0"):
        verify_stabilizer_expansions(ch, "parab-f")


def test_g_and_h_expansions():
    for p, base in ((7, (1, 4, 1)), (13, None)):
        if base is None:
            # find a point with dPx unit and y0, z0 away from +-2
            from markoff_padic.census import enumerate_points, _decode

            pts = enumerate_points(p, 1, 0)
            for code in pts:
                x, y, z = (int(c) for c in _decode(code, p))
                if (2 * x - y * z) % p and y not in (2, p - 2) and z not in (2, p - 2):
                    base = (x, y, z)
                    break
        pt = lift_point(base, 0, p, 4)
        ch = recentre(parametrize(pt))
        rep = verify_stabilizer_expansions(ch, "g-and-h")
        assert rep["passed"], rep


def test_g_and_h_on_uncentred_chart_reports_drift_variant():
    # without recentring the drift terms are nonzero and distinguish the
    # z-drift reading of the constant term from the derived y-drift
    pt = lift_point((1, 4, 1), 0, 7, 4)
    ch = parametrize(pt)
    rep = verify_stabilizer_expansions(ch, "g-and-h")
    assert rep["passed"]
    note = rep["notes"][0]
    assert note["z-drift-variant-passes"] is False


def test_g_and_h_applies_each_word_once_per_sample(monkeypatch):
    # each sample's chart point is solved once per sample set, and mapped by
    # g and h (mod-p samples), then g^p and h^p (all samples); g^p is checked
    # against the y-drift and the z-drift reading from one image
    ch = recentre(parametrize(lift_point((1, 4, 1), 0, 7, 4)))
    apply_word, psi = polydisk.apply_word, PolydiskChart.psi
    words, solves = [], []

    def counted_apply(word, pt):
        words.append(len(word))
        return apply_word(word, pt)

    def counted_psi(self, u, v):
        solves.append((u.residue, v.residue))
        return psi(self, u, v)

    monkeypatch.setattr(polydisk, "apply_word", counted_apply)
    monkeypatch.setattr(PolydiskChart, "psi", counted_psi)
    rep = verify_stabilizer_expansions(ch, "g-and-h")
    assert rep["passed"]
    assert list(rep["checks"]) == ["g-mod-p", "h-mod-p", "gp-mod-p2", "hp-mod-p2"]
    samples = _default_samples(7, 2, seed=3001 * 7)
    mod_p = [s for s in samples if s[0] < 7 and s[1] < 7]
    assert len(words) == 2 * len(mod_p) + 2 * len(samples)
    assert solves == mod_p + samples


def test_nonpara_f_expansion():
    pt = lift_point((1, 4, 1), 0, 7, 4)
    ch = recentre(parametrize(pt))
    rep = verify_stabilizer_expansions(ch, "nonpara-f")
    assert rep["passed"]
    with pytest.raises(ValueError, match="x0"):
        verify_stabilizer_expansions(_chart_p5_exceptional(), "nonpara-f")


def test_unipotent_linearizations_and_gp_identity_mod_p():
    p = 7
    n = (p * p - 1) // 2
    pt = lift_point((1, 4, 1), 0, p, 4)
    ch = recentre(parametrize(pt))
    y0, z0 = ch.base.y, ch.base.z
    c1 = -(ch.partial * n) * (y0 * y0 - 4).invert()
    c2 = (ch.partial * n) * (z0 * z0 - 4).invert()
    assert c1.is_unit() and c2.is_unit()
    g = AutWord(("sz", "sx")).power(n // 2)
    h = AutWord(("sx", "sy")).power(n // 2)
    # lower/upper unipotent action mod p on the coordinate axes
    img = ch.apply_word_uv(g, ch.uv(1, 0))
    assert (img[0].residue % p, img[1].residue % p) == (1, c1.residue % p)
    img = ch.apply_word_uv(h, ch.uv(0, 1))
    assert (img[0].residue % p, img[1].residue % p) == (c2.residue % p, 1)
    # p-th powers act as the identity mod p
    for w in (g.power(p), h.power(p)):
        for uv in ((0, 0), (1, 2), (3, 5)):
            out = ch.apply_word_uv(w, ch.uv(*uv))
            assert (out[0].residue % p, out[1].residue % p) == uv


def test_verify_expansions_runs_the_lemmas_whose_hypotheses_hold(monkeypatch):
    # on the route bases of D = 0 and the first D with (D - 4 | p) = 1, and
    # the exceptional p = 5, D = 3 base (s, 2, 0), which has no g-and-h, the
    # suites are xi's expansion and exactly the lemmas whose own checks
    # accept the base; one sample per suite keeps this fast
    monkeypatch.setattr(polydisk, "_default_samples", lambda p, level, seed: [(1, 2)])
    cases = [(5, 3)]
    for p in range(5, 60, 2):
        if all(p % q for q in range(3, p, 2)):
            square = next(d for d in range(p) if legendre(PadicInt(p, 1, d - 4)) == 1)
            cases += [(p, D) for D in dict.fromkeys((0, square))]
    for p, D in cases:
        route = certify.certification_route(p, 3, D)
        _, _, chart = certify.base_point_chart(p, 3, D, route)
        held = []
        for lemma in ("parab-f", "nonpara-f", "g-and-h"):
            try:
                verify_stabilizer_expansions(chart, lemma)
            except ValueError as exc:
                assert "hypothesis violated" in str(exc), (p, D, lemma)
                continue
            held.append(lemma)
        suites = verify_expansions(chart)
        assert list(suites) == ["xi_expansion"] + held, (p, D)
        assert ("parab-f" in suites) != ("nonpara-f" in suites), (p, D)


def test_unknown_lemma():
    ch = _chart733()
    with pytest.raises(ValueError, match="unknown lemma"):
        verify_stabilizer_expansions(ch, "nope")
