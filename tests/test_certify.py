"""Certification pipeline: special points, strict moves, certificates, XD."""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoff_padic import census
from markoff_padic.certify import (
    _stabilizers,
    base_point_chart,
    certificate_json,
    certification_route,
    certify_minimal_polydisk,
    check_XD,
    find_special_point,
    replay,
    residual_transitivity,
    strict_move_search,
)
from markoff_padic.census import _decode, check_transitivity, enumerate_points
from markoff_padic.padic import PadicInt, legendre
from markoff_padic.polydisk import parametrize, recentre
from markoff_padic.surface import (
    VIETA_LETTERS,
    AutWord,
    apply_word,
    dist,
    generator_formula,
    lift_point,
    unit_partial,
)


def test_special_point_p13_D0():
    # sqrt(D-4) = sqrt(-4): 3^2 = 9 = -4 mod 13
    assert (3 * 3 + 4) % 13 == 0
    pt = find_special_point(13, 0, 3)
    assert pt.x.residue == 2
    x0, y0, z0 = pt.residues(1)
    assert y0 not in (2, 11) and z0 not in (2, 11)
    assert all(d.is_unit() for d in pt.partials())


def test_special_point_p5_routes():
    # D = 3 mod 5: the exceptional recipe point (i, 2, 0) with i = 2 mod 5
    pt = find_special_point(5, 3, 3)
    assert pt.residues(1) == (2, 2, 0)
    assert (pt.x * pt.x).residue == (3 - 4) % 125
    # D = 0 mod 5: the generic scan succeeds with t = 0
    pt0 = find_special_point(5, 0, 3)
    assert pt0.x.residue == 2 and pt0.z.residue == 0


def test_special_point_scan_is_deterministic_least_t():
    pt = find_special_point(13, 0, 3)
    t = pt.z.residue % 13
    s1 = pt.y.residue % 13 - t
    for smaller in range(t):
        ok = (
            ((smaller + s1) ** 2 - 4) % 13 != 0
            and (smaller**2 - 4) % 13 != 0
            and (4 - smaller * (smaller + s1)) % 13 != 0
        )
        assert not ok


def test_special_point_requires_recipe():
    with pytest.raises(ValueError, match="no special point recipe"):
        find_special_point(7, 0, 3)  # -4 is not a QR mod 7


def test_strict_move_special_p13():
    pt = find_special_point(13, 0, 3)
    word, d = strict_move_search(pt)
    assert word == AutWord(("sy", "sz")).power(13)
    assert d.exponent == 1
    img = apply_word(word, pt)
    assert dist(pt, img).exponent == 1


def test_strict_move_p7_any_point():
    pt = lift_point((1, 4, 1), 0, 7, 3)
    word, d = strict_move_search(pt)
    assert d.exponent == 1
    assert word.gamma_only and len(word) > 0


def test_strict_move_never_identity():
    # a word fixing the point at precision is never accepted
    pt = lift_point((1, 4, 1), 0, 7, 3)
    word, _ = strict_move_search(pt)
    assert len(word) > 0
    assert not dist(pt, apply_word(word, pt)).indistinguishable


def test_strict_move_precision_guard():
    pt = lift_point((1, 4, 1), 0, 7, 1)
    with pytest.raises(ValueError, match="precision"):
        strict_move_search(pt)


def _recentred_chart_p7():
    return recentre(parametrize(lift_point((1, 4, 1), 0, 7, 3)))


def test_residual_transitivity_cases():
    ch = _recentred_chart_p7()
    p = 7
    n = (p * p - 1) // 2
    g = AutWord(("sz", "sx")).power(n // 2)
    h = AutWord(("sx", "sy")).power(n // 2)
    # identity alone: p^2 singleton orbits
    rep0 = residual_transitivity(ch, [AutWord(())])
    assert not rep0["transitive"] and rep0["orbit_sizes"] == [1] * 49
    # the unipotent pair alone: the origin and everything else
    rep1 = residual_transitivity(ch, [g, h])
    assert not rep1["transitive"] and rep1["orbit_sizes"] == [1, 48]
    # adding the strict move gives one orbit
    gamma, _ = strict_move_search(ch.base)
    rep2 = residual_transitivity(ch, [g, h, gamma])
    assert rep2["transitive"] and rep2["orbit_sizes"] == [49]


def test_residual_transitivity_rejects_non_stabilizers():
    # s_x moves (1,4,1) to (3,4,1) mod 7, so it does not stabilize the disk
    ch = _recentred_chart_p7()
    with pytest.raises(ValueError, match="leaves polydisk"):
        residual_transitivity(ch, [AutWord(("sx",))])


@pytest.mark.parametrize("D, route", [(0, "arbitrary-point"), (5, "special-point")])
def test_residual_budget_bounds_the_traced_peak(D, route, monkeypatch):
    # the stage's byte estimate against its tracemalloc peak at p = 211 with
    # 2, 3 and 4 words: the stabilizers, the strict move and their product
    p = 211
    assert certification_route(p, 3, D) == route
    _, _, chart = base_point_chart(p, 3, D, route)
    gamma, _ = strict_move_search(chart.base, 8)
    gens, _ = _stabilizers(chart, route, False)
    words = [*gens, gamma, gamma * gens[0]]
    needs, check = [], census.check_budget
    monkeypatch.setattr(census, "check_budget", lambda n, *a: needs.append(n) or check(n, *a))
    for n in (2, 3, 4):
        tracemalloc.start()
        try:
            residual_transitivity(chart, words[:n])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= needs[-1], (D, n, peak, needs[-1])


def _reference_orbit_sizes(chart, words):
    """Orbit sizes of the words' PadicInt chart tables on the residues mod p."""
    p = chart.prime
    parent = {(u, v): (u, v) for u in range(p) for v in range(p)}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for w in words:
        for u, v in list(parent):
            image = tuple(c.residue % p for c in chart.apply_word_uv(w, chart.uv(u, v)))
            parent[find((u, v))] = find(image)
    return sorted(Counter(find(a) for a in parent).values())


@st.composite
def _transitivity_cases(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    D = draw(st.integers(0, p**3 - 1))
    base = enumerate_points(p, 1, D % p)
    assume(len(base) > 0)
    t = tuple(int(c) for c in _decode(base[draw(st.integers(0, len(base) - 1))], p))
    # oriented as certify._pick_arbitrary_base does, so that dP/dx is a unit
    perm = (None, "pxy", "pzx")[unit_partial(t, p)]
    if perm is not None:
        t = generator_formula(perm)(*t)
    chart = parametrize(lift_point(t, D, p, 3))
    if draw(st.booleans()) and all(c % p not in (2, p - 2) for c in t[1:]):
        chart = recentre(chart)

    def stabilizer_candidate():
        # pair powers that fix the polydisk when the fixed coordinate is
        # away from +-2 (m a multiple of (p^2-1)/4) or at +-2 (m a multiple
        # of p), and their Vieta conjugates; uniform words almost always leave
        m = draw(st.sampled_from(((p * p - 1) // 4, p))) * draw(st.sampled_from((1, 2, -1)))
        pair = draw(st.sampled_from((("sy", "sz"), ("sz", "sx"), ("sx", "sy"))))
        alpha = AutWord(draw(st.sampled_from([()] + [(g,) for g in VIETA_LETTERS])))
        return alpha.inverse() * AutWord(pair).power(m) * alpha

    words = [stabilizer_candidate() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        # a strict move translates the residues, which makes most draws transitive
        try:
            words.append(strict_move_search(chart.base)[0])
        except ValueError:  # none within the collision search's budget
            pass
    return chart, words


@settings(max_examples=60, deadline=None)
@given(_transitivity_cases())
def test_residual_transitivity_matches_the_chart_table(case):
    # the affine maps fitted at three chart points against the per-point
    # PadicInt table of the conjugated action on all p^2 chart residues mod p
    chart, words = case
    try:
        want = _reference_orbit_sizes(chart, words)
    except ValueError as exc:
        assert "leaves polydisk" in str(exc)
        with pytest.raises(ValueError, match="leaves polydisk"):
            residual_transitivity(chart, words)
        return
    rep = residual_transitivity(chart, words)
    assert rep["orbit_sizes"] == want
    assert rep["transitive"] == (want == [chart.prime**2])
    assert rep["generators"] == [str(w) for w in words]


@pytest.mark.parametrize("p,k,D", [(7, 3, 0), (11, 3, 0), (13, 3, 0), (5, 3, 3)])
def test_certificates_pass_and_replay(p, k, D):
    cert = certify_minimal_polydisk(p, k, D)
    assert cert["overall"], cert["stage_failures"]
    assert cert["strict_move"]["dist"] == "p^-1"
    assert cert["residual_transitivity"]["transitive"]
    assert cert["minimal_subdisk"]["unit"]
    ok, fresh = replay(cert)
    assert ok
    assert certificate_json(fresh) == certificate_json(cert)


def test_certify_time_grows_with_runs_not_letters():
    # the minimal-subdisk words of about p^3/2 letters are single runs, so
    # both routes certify near p = 200 in about a second; letter by letter
    # took minutes
    start = time.perf_counter()
    for p, route in ((197, "special-point"), (199, "arbitrary-point")):
        cert = certify_minimal_polydisk(p, 3, 0)
        assert cert["route"] == route and cert["overall"], cert["stage_failures"]
    assert time.perf_counter() - start < 30


def test_replay_after_json_roundtrip():
    import json

    cert = certify_minimal_polydisk(7, 3, 0)
    revived = json.loads(certificate_json(cert))
    ok, _ = replay(revived)
    assert ok


def test_optimized_exponent_certificates():
    for p, k, D in ((7, 3, 0), (13, 3, 0)):
        cert = certify_minimal_polydisk(p, k, D, optimize_exponent=True)
        assert cert["overall"], cert["stage_failures"]
        powers = cert["chart"]["stabilizer_powers"]
        assert powers["g"] <= (p * p - 1) // 4
        ok, _ = replay(cert)
        assert ok


def test_certificate_routes():
    assert certify_minimal_polydisk(7, 3, 0)["route"] == "arbitrary-point"
    assert certify_minimal_polydisk(13, 3, 0)["route"] == "special-point"
    assert certify_minimal_polydisk(5, 3, 3)["route"] == "exceptional-p5"
    assert certify_minimal_polydisk(5, 3, 0)["route"] == "special-point"


def test_certificate_rejects_bad_parameters():
    with pytest.raises(ValueError, match="p > 3"):
        certify_minimal_polydisk(3, 3, 0)
    with pytest.raises(ValueError, match="precision"):
        certify_minimal_polydisk(7, 2, 0)
    with pytest.raises(ValueError, match="hypotheses"):
        certify_minimal_polydisk(7, 3, 7)  # D = 0 mod p but not mod p^2, -4+7=3 non-QR
    assert legendre(PadicInt(7, 1, 3)) == -1
    # the route holds the theorem's hypotheses only: no limit on p beyond p > 3
    assert certification_route(1447, 3, 0) == "arbitrary-point"
    assert certification_route(1451, 3, 0) == "arbitrary-point"


def test_certificate_past_p_1447():
    # p^2 > 2^21: the residual partition holds chart residues mod p, not
    # point codes mod p^2, so only the memory budget bounds p
    cert = certify_minimal_polydisk(1453, 3, 0)
    assert cert["route"] == "special-point"
    assert cert["overall"], cert["stage_failures"]
    assert cert["residual_transitivity"]["orbit_sizes"] == [1453**2]
    ok, _ = replay(cert)
    assert ok


def test_certified_det_matches_c1c2uv():
    # the minimal-subdisk determinant of (g^p, h^p) at (u,v) has columns
    # (0, c1 u) and (c2 v, 0), so it equals -c1 c2 u v: a unit exactly when
    # c1 c2 u v is one
    p, k = 7, 4
    cert = certify_minimal_polydisk(p, k, 0)
    base = lift_point(cert["base_point"]["recentred"], 0, p, k)
    ch = parametrize(base)
    n = (p * p - 1) // 2
    y0, z0 = ch.base.y, ch.base.z
    c1 = -(ch.partial * n) * (y0 * y0 - 4).invert()
    c2 = (ch.partial * n) * (z0 * z0 - 4).invert()
    u, v = cert["minimal_subdisk"]["witness"]
    want = (-(c1 * c2 * u * v)).residue_mod(1)
    assert cert["minimal_subdisk"]["det"] % p == want
    assert (c1 * c2 * u * v).is_unit() == cert["minimal_subdisk"]["unit"]


def test_certify_implies_level_transitivity():
    # analytic certificate is consistent with the combinatorial proxy
    for (p, D) in ((7, 0), (5, 3)):
        cert = certify_minimal_polydisk(p, 3, D)
        assert cert["overall"]
        assert check_transitivity(p, 2, D, "aut")
        assert check_transitivity(p, 3, D, "aut")


def test_check_XD_finds_witness_when_certified():
    rep = check_XD(7, 3, 0, budget=4)
    assert rep["found"] and rep["certify_hypotheses_hold"]
    # the witness is replayable: recompute its value
    from markoff_padic.chebyshev import chebyshev_T_at
    from markoff_padic.surface import eval_P

    q = lift_point(rep["point"], 0, 7, 2)
    tx, ty, tz = (chebyshev_T_at(c, 7) for c in q.coords())
    assert eval_P(tx, ty, tz).residue_mod(2) == rep["value_mod_p2"]
    assert rep["value_mod_p2"] != rep["D_mod_p2"]


def test_check_XD_negative_along_finite_orbit():
    rep = check_XD(7, 4, 2, budget=20, start=(1, 1, 1))
    assert not rep["found"]
    assert rep["scanned"] == 16


def test_check_XD_exploratory_report_fields():
    rep = check_XD(7, 3, 2, budget=3)
    assert "found" in rep and "scanned" in rep
    assert not rep["certify_hypotheses_hold"]  # D=2: -2 mod 7 = 5, non-QR


def test_check_XD_hypotheses_are_the_certification_route():
    # admissibility has one definition: p = 3 is refused by certify, so
    # xd-check must not report its hypotheses as holding
    for p in (3, 5, 7):
        for D in range(p * p):
            try:
                admissible = bool(certification_route(p, 3, D))
            except ValueError:
                admissible = False
            rep = check_XD(p, 3, D, budget=1)
            assert rep["certify_hypotheses_hold"] == admissible, (p, D)
    # (D-4) = 1 is a nonzero square mod 3, yet certify refuses p = 3
    assert not check_XD(3, 3, 2, budget=1)["certify_hypotheses_hold"]


def test_check_XD_precision_guard():
    with pytest.raises(ValueError, match="precision"):
        check_XD(7, 2, 0)


def test_collision_bfs_words_pinned():
    # the Vieta collision search, reached directly: exact words at budget 8
    from markoff_padic.certify import _collision_bfs

    cases = (
        (7, 0, (4, 1, 1), "sy sx sz sy sx sz"),
        (13, 0, (5, 1, 0), "sz sy sx sy sz sx sy sz sy sz"),
        (5, 3, (2, 2, 0), "sz sx sy sx sz"),
        (11, 3, (5, 0, 0), None),
    )
    for p, D, t, expected in cases:
        pt = lift_point(t, D, p, 3)
        word = _collision_bfs(pt, 8)
        if expected is None:
            assert word is None, (p, D, t)
            continue
        assert str(word) == expected, (p, D, t)
        assert dist(pt, apply_word(word, pt)).exponent == 1
    # the budget bounds the search depth: at 4 the p = 13 collision is out of reach
    assert _collision_bfs(lift_point((5, 1, 0), 0, 13, 3), 4) is None


def test_check_XD_word_tracking_pinned():
    rep = check_XD(7, 3, 5)
    assert rep["found"]
    assert rep["start"] == [2, 1, 0]
    assert rep["word"] == "sy sz"
    assert rep["point"] == [2, 3, 2]
    assert rep["value_mod_p2"] == 19
    assert rep["scanned"] == 9
    # several roots: roots already reached from an earlier root are skipped
    rep = check_XD(7, 3, 4)
    assert not rep["found"]
    assert rep["scanned"] == 46
    assert check_XD(7, 3, 4, budget=2)["scanned"] == 55


def test_check_XD_refuses_a_start_off_the_surface():
    # P(1, 1, 1) = 2, not 0 mod 7: refused up front, naming the start
    with pytest.raises(ValueError, match=r"start \(1, 1, 1\) is not a nonsingular point"):
        check_XD(7, 3, 0, start=(1, 1, 1))
    # (0, 0, 0) lies on X_0 but is singular mod p
    with pytest.raises(ValueError, match=r"start \(0, 0, 0\)"):
        check_XD(7, 3, 0, start=(0, 0, 0))


_FRAGMENTS = ("base_point", "chart", "strict_move", "residual_transitivity", "minimal_subdisk")


def _raising(message):
    def fake(*args, **kwargs):
        raise ValueError(message)

    return fake


def _not_transitive(chart, words):
    return {"transitive": False, "orbit_sizes": [1, 48], "generators": []}


def _non_unit_det(f_map, g_map, point):
    return PadicInt(13, 2, 13), False


@pytest.mark.parametrize(
    "module,name,fake,params,failures,recorded",
    [
        ("certify", "find_special_point", _raising("no special point recipe"), (13, 3, 0),
         ["base-point/chart: no special point recipe"], []),
        ("census", "enumerate_points", lambda *a, **kw: np.zeros(0, dtype=np.int64), (7, 3, 0),
         ["base-point/chart: no points mod p"], []),
        ("certify", "strict_move_search", _raising("no strict move found"), (13, 3, 0),
         ["strict-move: no strict move found"], ["base_point", "chart"]),
        # the letter-by-letter re-check disagrees with the run evaluation
        ("certify", "apply_letters", lambda word, pt: pt, (13, 3, 0),
         ["strict-move: strict move distance differs letter by letter"], ["base_point", "chart"]),
        ("certify", "residual_transitivity", _raising("leaves polydisk"), (13, 3, 0),
         ["residual-transitivity: leaves polydisk"], ["base_point", "chart", "strict_move"]),
        ("certify", "residual_transitivity", _not_transitive, (13, 3, 0),
         ["residual-transitivity: not transitive"],
         ["base_point", "chart", "strict_move", "residual_transitivity"]),
        ("certify", "local_minimality_det", _non_unit_det, (13, 3, 0),
         ["minimal-subdisk: determinant not a unit"], list(_FRAGMENTS)),
        ("certify", "twisted_minimality_det", _raising("twisted map is not affine mod p"),
         (5, 3, 3), ["minimal-subdisk: twisted map is not affine mod p"],
         ["base_point", "chart", "strict_move", "residual_transitivity"]),
    ],
    ids=["special-point", "no-points", "strict-move", "strict-move-recheck", "rt-raises",
         "rt-not-transitive",
         "det-non-unit", "twisted-raises"],
)
def test_stage_failure_is_recorded_and_stops_the_pipeline(
    monkeypatch, module, name, fake, params, failures, recorded
):
    from markoff_padic import census, certify

    monkeypatch.setattr({"certify": certify, "census": census}[module], name, fake)
    cert = certify_minimal_polydisk(*params)
    assert cert["stage_failures"] == failures
    assert cert["overall"] is False
    assert [f for f in _FRAGMENTS if cert[f] is not None] == recorded
    if cert["strict_move"] is not None and params == (13, 3, 0):
        # the stabilizer powers are chosen before the transitivity check runs
        assert cert["chart"]["stabilizer_powers"] == {"g": 42, "h": 42}
    if fake is _not_transitive:
        assert cert["residual_transitivity"] == _not_transitive(None, [])
    if fake is _non_unit_det:
        assert cert["minimal_subdisk"] == {
            "witness": [1, 1], "method": "direct", "det": 13, "det_precision": 2, "unit": False,
        }
