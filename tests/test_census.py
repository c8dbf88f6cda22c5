"""Point enumeration, counting, orbits, divisibility, and the catalog."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoff_padic import census
from markoff_padic.census import (
    BudgetError,
    _bfs_exact,
    _decode,
    _encode,
    _gen_maps,
    _sorted_distinct,
    check_transitivity,
    count_points,
    enumerate_points,
    finite_orbit_catalog,
    orbit_divisibility,
    orbits,
    partition,
    residue_bfs,
)
from markoff_padic.padic import PadicInt
from markoff_padic.surface import (
    ALL_LETTERS,
    CONJUGATORS,
    GENERATORS,
    VIETA_LETTERS,
    AutWord,
    fiber_step,
    gradient,
    is_point,
    lift_point,
    unit_partial,
)
from test_surface import newton_fiber

ODD_PRIMES_BELOW_60 = [p for p in range(3, 60, 2) if all(p % q for q in range(3, p, 2))]


def _brute_oracle(p, k, D):
    """Independent pure-python scan."""
    M = p**k
    out = []
    for x in range(M):
        for y in range(M):
            for z in range(M):
                if (x * x + y * y + z * z - x * y * z - D) % M == 0:
                    if (
                        (2 * x - y * z) % p
                        or (2 * y - x * z) % p
                        or (2 * z - x * y) % p
                    ):
                        out.append(x + M * y + M * M * z)
    return np.array(sorted(out), dtype=np.int64)


def test_counts_match_paper_formula_for_3_mod_4():
    for p, want in ((7, 28), (11, 88), (19, 304)):
        rep = count_points(p, 1, 0)
        assert rep["count"] == want
        assert rep["formula_holds"]


def test_count_p5_is_40_not_formula():
    # p = 5 is 1 mod 4: the p(p-3) hypothesis fails and the true count is
    # p(p+3) = 40 (checked against the independent oracle)
    assert len(_brute_oracle(5, 1, 0)) == 40
    rep = count_points(5, 1, 0)
    assert rep["count"] == 40
    assert not rep["formula_applicable"]


def test_enumeration_matches_pure_python_oracle():
    for (p, k, D) in ((5, 1, 0), (7, 1, 0), (5, 2, 3), (3, 2, 2)):
        got = enumerate_points(p, k, D)
        assert np.array_equal(got, _brute_oracle(p, k, D))


def test_level2_count_example():
    assert len(enumerate_points(7, 2, 0)) == 28 * 49


def _count_cases():
    for p, k in ((3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)):
        yield from ((p, k, D) for D in range(p**k))
    for p in (11, 13):
        yield from ((p, 2, D) for D in range(0, p * p, 7))


def test_count_is_base_times_fiber():
    # the count multiplies the mod-p points by p^{2(k-1)}; the lift that
    # enumerates every point is the reference
    for p, k, D in _count_cases():
        want = len(enumerate_points(p, k, D))
        assert count_points(p, k, D)["count"] == want, (p, k, D)
        assert count_points(p, k, PadicInt(p, k, D))["count"] == want, (p, k, D)
    with pytest.raises(ValueError, match="at least 1"):
        count_points(7, 0, 0)
    with pytest.raises(ValueError, match="exceeds precision"):
        count_points(7, 3, PadicInt(7, 2, 0))


def test_D_over_another_prime_is_refused():
    # 7 over 5 is 2 mod 5: read as D = 2 it would count 22 points mod 7
    foreign = PadicInt(5, 3, 7)
    for call in (count_points, enumerate_points, orbits, orbit_divisibility):
        with pytest.raises(ValueError, match="prime mismatch"):
            call(7, 1, foreign)
    with pytest.raises(ValueError, match="prime mismatch"):
        lift_point((1, 4, 1), foreign, 7, 2)
    # an int D and a same-prime D of higher precision give the same answers
    for D in (0, 2, 7 + 49):
        deep = PadicInt(7, 4, D)
        assert count_points(7, 2, deep) == count_points(7, 2, D)
        assert np.array_equal(enumerate_points(7, 2, deep), enumerate_points(7, 2, D))
        a, b = orbits(7, 2, deep, "aut"), orbits(7, 2, D, "aut")
        assert a == b and a.representatives == b.representatives
        t = [int(c) for c in _decode(enumerate_points(7, 1, D)[0], 7)]
        assert lift_point(t, deep, 7, 2) == lift_point(t, D, 7, 2)
    assert orbit_divisibility(7, 2, PadicInt(7, 4, 49))[1]


def test_count_builds_no_level_k_set():
    # 208 * 13^4 = 5,940,688 points, counted from the 208 mod-13 points
    tracemalloc.start()
    try:
        rep = count_points(13, 3, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["count"] == 208 * 13**4
    assert peak < 1 << 20


def test_enumerated_points_are_points():
    p, k, D = 5, 1, 1
    pts = enumerate_points(p, k, D)
    assert len(pts) > 0
    d = PadicInt(p, k, D)
    for code in pts:
        x, y, z = (int(v) for v in _decode(code, p))
        triple = (PadicInt(p, k, x), PadicInt(p, k, y), PadicInt(p, k, z))
        assert is_point(triple, d)


def test_lift_equals_brute():
    # the fiber step runs once per point at k = 2, and two or three times
    # in turn at (5, 3, 1), (5, 3, 3) and (3, 4, 5)
    for (p, k, D) in ((5, 2, 0), (7, 2, 0), (11, 2, 0), (5, 3, 1), (13, 2, 0), (3, 4, 5), (5, 3, 3)):
        a = enumerate_points(p, k, D, mode="brute")
        b = enumerate_points(p, k, D)
        assert np.array_equal(a, b), (p, k, D)


def test_lift_budget_bounds_the_traced_peak():
    # the lifted codes and one fiber's work arrays stay within the 32 bytes
    # a lifted point that enumerate_points checks the lift against
    for p, k, D in ((11, 3, 4), (29, 2, 4), (3, 6, 5), (5, 4, 3)):
        tracemalloc.start()
        try:
            points = enumerate_points(p, k, D)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * len(points), (p, k, D, peak, len(points))


def test_smooth_fiber_count():
    for (p, k, D) in ((5, 2, 0), (7, 2, 0), (5, 3, 3), (7, 3, 0)):
        n1 = len(enumerate_points(p, 1, D))
        nk = len(enumerate_points(p, k, D))
        assert nk == n1 * p ** (2 * (k - 1))


def test_enumeration_strictly_increasing():
    # the solve, the scan and the lift return their points sorted but never
    # deduplicate: each point must come out exactly once
    runs = [((5, 1, 0), "auto"), ((13, 1, 4), "auto"), ((11, 1, 0), "brute")]
    for (p, k, D) in ((5, 2, 3), (7, 3, 0), (11, 2, 0), (13, 2, 0)):
        runs += [((p, k, D), "brute"), ((p, k, D), "auto")]
    for (p, k, D), mode in runs:
        pts = enumerate_points(p, k, D, mode=mode)
        assert pts.dtype == np.int64 and len(pts) > 0
        assert np.all(np.diff(pts) > 0), (p, k, D, mode)


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from(ODD_PRIMES_BELOW_60),
    lift=st.integers(-(10**9), 10**9),
    precision=st.integers(1, 3),
)
def test_level1_solve_matches_brute_scan(p, lift, precision):
    # the O(p^2) solve against the O(p^3) scan, for every D mod p, with D
    # given as an int and as a PadicInt of any precision
    for d in range(p):
        ref = enumerate_points(p, 1, d, mode="brute")
        value = d + p * lift
        for D in (value, PadicInt(p, precision, value)):
            got = enumerate_points(p, 1, D)
            assert got.dtype == np.int64 and np.all(np.diff(got) > 0)
            assert np.array_equal(got, ref), (p, d, D)


def test_level1_solve_blocks_match_brute_scan(monkeypatch):
    # the codes of several blocks written into one reservation: the real
    # block size at p = 131 (125 rows and a ragged 6), then blocks of 3 rows
    # at p = 13 (the last one a single row)
    def check(p, d):
        got = np.sort(census._solve_level1(p, d))
        assert np.array_equal(got, enumerate_points(p, 1, d, mode="brute")), (p, d)

    assert census._block_rows(131) == 125
    for d in (0, 4, 7):
        check(131, d)
    monkeypatch.setattr(census, "SOLVE_BLOCK", 50)
    assert census._block_rows(13) == 3
    for d in range(13):
        check(13, d)


def test_level1_reservation_holds_every_point():
    # the solve reserves p(p + 5) codes: every point mod p, singular ones
    # included, fits.  A cell (x, y) has 1 + (disc | p) roots z
    for p in ODD_PRIMES_BELOW_60:
        t = np.arange(p)
        legendre = np.full(p, -1)
        legendre[t * t % p] = 1
        legendre[0] = 0
        x, y = t[:, None], t[None, :]
        for d in range(p):
            disc = ((x * y) ** 2 - 4 * (x * x + y * y - d)) % p
            assert (1 + legendre[disc]).sum() <= p * (p + 5), (p, d)


def test_level1_budget_bounds_the_traced_peak():
    # the codes' reservation and a block's work arrays stay within the
    # budget the solve is checked against
    for p in (809, 1447):
        need = 8 * (4 * p * p + 12 * census._block_rows(p) * p)
        tracemalloc.start()
        try:
            enumerate_points(p, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need, (p, peak, need)


def test_brute_budget_bounds_the_traced_peak():
    # the scan's work array and its points' codes stay within its 32 M^2
    # byte budget (D = 0 and D = 1, levels 2 and 3)
    for p, k, D in ((7, 2, 0), (11, 2, 0), (13, 2, 0), (5, 3, 0), (17, 2, 1), (7, 3, 1)):
        need = 8 * p ** (2 * k) * 4
        tracemalloc.start()
        try:
            enumerate_points(p, k, D, mode="brute")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need, (p, k, D, peak, need)


def test_level1_solve_needs_an_odd_prime():
    # a root table mod a composite misses roots, so the solve refuses
    with pytest.raises(ValueError, match="odd prime"):
        enumerate_points(9, 1, 0)
    assert np.array_equal(enumerate_points(9, 1, 0, mode="brute"), _brute_oracle(9, 1, 0))


def test_level1_budget_boundaries():
    # the solve at p = 5: 8 * (4 * 25 + 12 * 5 * 5) = 3200 bytes; the
    # one-process scan: 8 * 25 * 4 = 800 bytes
    enumerate_points(5, 1, 0, max_mem=3200)
    with pytest.raises(BudgetError, match="solve needs ~3200 bytes"):
        enumerate_points(5, 1, 0, max_mem=3199)
    enumerate_points(5, 1, 0, mode="brute", max_mem=800)
    with pytest.raises(BudgetError, match="scan needs ~800 bytes"):
        enumerate_points(5, 1, 0, mode="brute", max_mem=799)
    # the lift's base is the solve under the same budget
    with pytest.raises(BudgetError, match="solve needs"):
        enumerate_points(5, 2, 0, max_mem=3199)


def test_level1_count_reaches_large_p():
    # p(p + 3 * (-1|p)) at D = 0, in well under a second each under the
    # default budget: 1447 = 3 mod 4, 1453 = 1 mod 4
    assert count_points(1447, 1, 0)["count"] == 2_089_468
    assert count_points(1453, 1, 0)["count"] == 2_115_568


def test_sorted_distinct_matches_unique():
    rng = np.random.default_rng(20250)
    top = (2**21 - 1) ** 3 - 1  # largest code at the largest allowed modulus
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, 3, dtype=np.int64),
        np.array([top, 0, top, 1, 0], dtype=np.int64),
    ]
    for n in (2, 10, 1000, 20000):
        cases.append(rng.integers(0, 5, size=n, dtype=np.int64))  # heavy duplicates
        cases.append(rng.integers(0, n, size=n, dtype=np.int64))
        cases.append(rng.integers(top - n, top, size=n, dtype=np.int64, endpoint=True))
        cases.append(rng.integers(0, top, size=n, dtype=np.int64, endpoint=True))
    for a in cases:
        before = a.copy()
        got = _sorted_distinct(a)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(a))
        assert np.array_equal(a, before)  # input left untouched


def test_code_range_guard():
    # M = 131^3 >= 2^21: codes up to M^3 - 1 would overflow int64, so the
    # request is refused before any budget check or allocation
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^21") as exc:
            enumerate_points(131, 3, 0, max_mem=10**18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "budget" not in str(exc.value) and not isinstance(exc.value, BudgetError)
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="2\\^21"):
        orbits(131, 3, 0)
    with pytest.raises(ValueError, match="2\\^21"):
        check_transitivity(131, 3, 0)
    # 127^3 is just below the limit: it passes the range check and meets the budget
    assert 127**3 < 2**21
    with pytest.raises(ValueError, match="budget exceeded"):
        enumerate_points(127, 3, 0, max_mem=10**6)


def test_partition_sizes_and_seeds():
    # the seed loop on its own: c -> c + 2 mod 6 has the orbits {0, 2, 4}
    # and {1, 3, 5}, seeded at their least indices; joins merge them
    pts = np.arange(6, dtype=np.int64)
    assert partition(pts, [lambda c: (c + 2) % 6]) == ([3, 3], [0, 1])
    assert partition(pts, [lambda c: (c + 2) % 6], [lambda c: c ^ 1]) == ([6], [0])
    assert partition(pts[:0], [lambda c: c]) == ([], [])


def test_budget_errors():
    with pytest.raises(BudgetError, match="budget exceeded"):
        enumerate_points(7, 3, 0, mode="brute", max_mem=10**6)
    with pytest.raises(BudgetError, match="budget exceeded"):
        enumerate_points(13, 4, 0, max_mem=10**6)
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_points(7, 0, 0)


def test_orbit_partition_sums_and_reps():
    part = orbits(7, 1, 0, gens="gamma")
    assert sum(part.orbit_sizes) == part.total == 28
    # representatives are genuine points, least in their orbit encoding
    for rep in part.representatives:
        x, y, z = rep
        assert (x * x + y * y + z * z - x * y * z) % 7 == 0


def test_orbit_partition_order_independent():
    pts = enumerate_points(7, 2, 0)
    maps = _gen_maps(7, 2, "gamma")
    assert partition(pts, maps) == partition(pts, list(reversed(maps)))


def test_orbits_closed_under_generators():
    part = orbits(5, 1, 3, gens="aut")
    pts = enumerate_points(5, 1, 3)
    maps = _gen_maps(5, 1, "aut")
    for m in maps:
        imgs = m(pts)
        assert np.array_equal(np.sort(np.unique(imgs)), pts)


def test_singleton_generator_orbit_sizes():
    # under {sx} alone every orbit has size at most 2
    from markoff_padic.census import _letter_func

    pts = enumerate_points(7, 1, 0)
    sizes, seeds = partition(pts, [_letter_func("sx", 7)])
    assert max(sizes) <= 2 and len(sizes) > 1
    assert sum(sizes) == len(pts) and seeds[0] == 0


def test_orbit_sizes_match_tuple_bfs():
    # the vectorized BFS against the pure-python set BFS from each representative
    # the last three have several orbits, and their Aut orbits join several
    # Vieta orbits
    cases = (
        (7, 2, 0, "gamma"),
        (7, 2, 0, "aut"),
        (5, 2, 3, "aut"),
        (11, 2, 0, "gamma"),
        (7, 1, 1, "aut"),
        (7, 2, 4, "aut"),
        (13, 2, 4, "gamma"),
    )
    for (p, k, D, gens) in cases:
        part = orbits(p, k, D, gens=gens)
        letters = VIETA_LETTERS if gens == "gamma" else ALL_LETTERS
        assert sum(part.orbit_sizes) == part.total == len(enumerate_points(p, k, D))
        for rep, size in zip(part.representatives, part.orbit_sizes):
            assert _bfs_exact(rep, p, k, letters) == size, (p, k, D, gens, rep)


# letter -> the Vieta letter h s_a h equals, for h each of H's six letters
_CONJUGATES = {
    "ex": {"sx": "sx", "sy": "sy", "sz": "sz"},
    "ey": {"sx": "sx", "sy": "sy", "sz": "sz"},
    "ez": {"sx": "sx", "sy": "sy", "sz": "sz"},
    "pxy": {"sx": "sy", "sy": "sx", "sz": "sz"},
    "pyz": {"sx": "sx", "sy": "sz", "sz": "sy"},
    "pzx": {"sx": "sz", "sy": "sy", "sz": "sx"},
}


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-(10**12), 10**12)] * 3))
def test_symmetries_normalize_vieta(t):
    # the identity the Aut BFS rests on: each sign change and transposition
    # is an involution and conjugates {sx, sy, sz} onto itself
    assert set(_CONJUGATES) == set(ALL_LETTERS) - set(VIETA_LETTERS)
    for h, conj in _CONJUGATES.items():
        act = GENERATORS[h]
        assert act(*act(*t)) == t
        for a, b in conj.items():
            assert act(*GENERATORS[a](*act(*t))) == GENERATORS[b](*t), (h, a, t)


_SMALL_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


@st.composite
def _classes(draw):
    p = draw(st.sampled_from(_SMALL_ODD_PRIMES))
    k = draw(st.sampled_from((1, 2, 3) if p <= 7 else (1, 2)))
    return p, k, draw(st.integers(0, p**k - 1))


@settings(max_examples=30, deadline=None)
@given(_classes())
def test_aut_orbits_match_nine_letter_bfs(case):
    # Vieta orbits joined by H against the plain BFS of all nine letters,
    # which ``partition`` runs on the nine maps with no joins
    p, k, D = case
    pts = enumerate_points(p, k, D)
    joined = orbits(p, k, D, "aut")
    sizes, seeds = partition(pts, _gen_maps(p, k, "aut"))
    assert joined.orbit_sizes == sizes
    assert [_encode(*rep, p**k) for rep in joined.representatives] == pts[seeds].tolist()
    assert check_transitivity(p, k, D, "aut") == (len(sizes) == 1)


def test_aut_escape_check_survives_the_joins():
    # at (7, 1, 1) the Vieta orbits have sizes 2, 2, 72, 2 and Aut joins the
    # three of size 2.  The 72-point orbit plus the orbit of (1, 0, 0) is
    # closed under the Vieta maps but not under H: pxy sends (1, 0, 0) to
    # (0, 1, 0), which is left out
    p, k, D = 7, 1, 1
    assert orbits(p, k, D, "gamma").orbit_sizes == [2, 2, 72, 2]
    assert orbits(p, k, D, "aut").orbit_sizes == [6, 72]
    subset = np.array(
        sorted(
            _encode(*t, p)
            for start in ((1, 0, 0), (2, 2, 0))
            for t, _ in residue_bfs(start, p, VIETA_LETTERS)
        ),
        dtype=np.int64,
    )
    assert len(subset) == 74
    maps = _gen_maps(p, k, "aut")
    with pytest.raises(RuntimeError, match="generator image escaped the point set"):
        partition(subset, maps[:3], maps[3:])
    # under the Vieta maps alone the subset is closed
    assert partition(subset, maps[:3])[0] == [2, 72]


def test_transitivity_examples():
    assert check_transitivity(7, 1, 0, "aut")
    assert check_transitivity(7, 2, 0, "aut")
    assert check_transitivity(5, 1, 3, "aut")


def _bfs_reference(p, k, D, gens):
    """Sizes and representatives of the enumerating BFS, ``orbits``' fallback."""
    pts = enumerate_points(p, k, D)
    maps = _gen_maps(p, k, gens)
    sizes, seeds = partition(pts, maps[:3], maps[3:])
    return sizes, [tuple(int(c) for c in _decode(pts[s], p**k)) for s in seeds]


@pytest.mark.parametrize("p, k", [(5, 2), (7, 2), (5, 3), (3, 4)])
def test_orbits_match_the_bfs_reference_in_every_class(p, k, monkeypatch):
    # every D mod p^2 (mod p^3 from level 3), both families: sizes, their
    # order and the representatives; every one-orbit class here is proved
    # (28, 48, 140 and 12 of them), none falls back to the BFS
    proofs = []
    lifts = census._lifts_transitive
    monkeypatch.setattr(
        census, "_lifts_transitive", lambda *a: proofs.append(lifts(*a)) or proofs[-1]
    )
    one_orbit = 0
    for D in range(p ** min(k, 3)):
        for gens in ("gamma", "aut"):
            part = orbits(p, k, D, gens)
            sizes, reps = _bfs_reference(p, k, D, gens)
            assert (part.orbit_sizes, part.representatives) == (sizes, reps), (p, k, D, gens)
            assert part.total == sum(sizes)
            one_orbit += len(sizes) == 1
    assert sum(proofs) == one_orbit > 0


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(p, k) for p in (3, 5, 7, 11, 13) for k in (2, 3) if p**k < 2000]),
    st.integers(0, 10**6),
    st.sampled_from(("gamma", "aut")),
)
def test_orbits_match_the_bfs_reference(pk, D, gens):
    # 13^3 is left out: its 5.9M-point reference BFS alone takes seconds
    p, k = pk
    part = orbits(p, k, D, gens)
    assert (part.orbit_sizes, part.representatives) == _bfs_reference(p, k, D, gens)


def test_a_split_fiber_falls_back_to_the_bfs():
    # one Aut orbit mod 7 at D = 3, but two at level 2: no set of
    # stabilizers can prove a split transitive, so the enumerating BFS
    # answers exactly
    assert orbits(7, 1, 3, "aut").orbit_sizes == [36]
    assert not census._lifts_transitive(enumerate_points(7, 1, 3), 7, 2, 3, "aut")
    part = orbits(7, 2, 3, "aut")
    assert (part.orbit_sizes, part.representatives) == ([36, 1728], [(10, 1, 0), (22, 3, 0)])


@pytest.mark.parametrize(
    "p, k, D, gens",
    [
        (7, 3, 35, "aut"),
        (7, 4, 35, "aut"),
        (13, 2, 39, "gamma"),
        (13, 2, 58, "aut"),
        (19, 2, 37, "gamma"),
        (19, 2, 86, "gamma"),
        (19, 2, 222, "gamma"),
        (23, 2, 84, "aut"),
        (23, 2, 245, "aut"),
        (23, 2, 406, "aut"),
        # w^n moves t~ mod p^2 for one rotation, and its p-th power is needed
        *((11, 3, 77, g) for g in ("gamma", "aut")),
        # the fiber stays split until the length-2 conjugators join
        *((13, 2, D, g) for D in (37, 143) for g in ("gamma", "aut")),
        # those, and at level 3 the rotations' exponents kept from level 2:
        # w^(np), as a fixed n p^(j-2) would give, leaves level 3 split
        *((13, 3, D, g) for D in (37, 143) for g in ("gamma", "aut")),
    ],
)
def test_one_draw_of_loops_proves_these_classes(p, k, D, gens):
    # one orbit each, proved by the rotation stabilizers h^-1 r_c^n h, the
    # loops at t: the first ten classes were the old Schreier-loop draw's
    # pinned cases, the rest need the mechanism named above them
    base = enumerate_points(p, 1, D)
    assert census._lifts_transitive(base, p, k, D % p**k, gens)


def test_conjugators_of_length_one_leave_13_2_37_split(monkeypatch):
    # one orbit at (13, 2, 37), proved only once the length-2 conjugators join
    base = enumerate_points(13, 1, 37)
    monkeypatch.setattr(census, "CONJUGATORS", CONJUGATORS[:4])
    assert not any(census._lifts_transitive(base, 13, 2, 37, g) for g in ("gamma", "aut"))
    monkeypatch.setattr(census, "CONJUGATORS", CONJUGATORS)
    assert all(census._lifts_transitive(base, 13, 2, 37, g) for g in ("gamma", "aut"))


def test_a_proof_enumerates_no_level_k_set(monkeypatch):
    # (13, 4, 0) needs ~32 GB to lift; the proof works on fibers of 169 points
    real = census.enumerate_points
    asked = []

    def level1_only(p, k, D, **kw):
        asked.append(k)
        return real(p, k, D, **kw)

    monkeypatch.setattr(census, "enumerate_points", level1_only)
    lift, lifted = census._lift, []
    monkeypatch.setattr(census, "_lift", lambda *a: lifted.append(a[2]) or lift(*a))
    tracemalloc.start()
    try:
        part = orbits(13, 4, 0, "aut")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.transitive and part.orbit_sizes == [part.total] == [208 * 13**6]
    assert asked == [1] and lifted == [] and peak < 4 << 20
    # the representative, the least level-k code, is enumerated on its first read
    part = orbits(7, 3, 0, "aut")
    assert max(asked) == 1 and lifted == []
    reps = part.representatives
    assert 3 in asked and lifted == [3]
    assert reps == [tuple(int(c) for c in _decode(real(7, 3, 0)[0], 7**3))]
    with pytest.raises(BudgetError, match="lifting"):
        orbits(13, 4, 0, "aut").representatives


def test_fiber_proof_budget_bounds_the_traced_peak(monkeypatch):
    # the traced peak from each of the proof's budget checks to the next
    # stays within the need that check was made against: the level-1 arrays
    # and the tables held after the stage it admits, also when the top fiber
    # is made to split after each stage's BFS, so that all thirty tables are
    # held.  A budget under stage 0's need refuses the proof, and stage 0's
    # need alone admits (401, 2)
    level, tables, expand = [], [], census._expand_orbit
    fiber_perms, check = census._fiber_perms, census.check_budget
    needs, peaks = [], []  # each check's need, and the peak traced up to the next

    def counted(t, p, j, d):
        level.append(j)
        perm = fiber_perms(t, p, j, d)
        return lambda word: tables.append(j) or perm(word)

    def traced(need, what, *args):
        if needs:
            peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        needs.append(need)
        check(need, what, *args)

    monkeypatch.setattr(census, "_fiber_perms", counted)
    monkeypatch.setattr(census, "check_budget", traced)
    for p, k, gens in ((211, 2, "aut"), (211, 2, "gamma"), (101, 3, "aut"), (101, 3, "gamma")):
        base = enumerate_points(p, 1, 0)
        for split in (False, True):
            level.clear()
            tables.clear()
            needs.clear()
            peaks.clear()

            def split_top(points, maps, *args, split=split, p=p, k=k):
                size = expand(points, maps, *args)
                return size - (split and len(points) == p * p and level[-1] == k)

            monkeypatch.setattr(census, "_expand_orbit", split_top)
            tracemalloc.start()
            try:
                assert census._lifts_transitive(base, p, k, 0, gens) is not split
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(peak <= need for peak, need in zip(peaks, needs)), (p, k, gens, split)
            assert (tables.count(k) >= 30) is split, (p, k, gens)  # every stage ran
            held = [3] * k + [12, 30] * split  # tables after each checked stage
            assert needs == [8 * (3 * len(base) + (n + 14) * p**2) + (1 << 17) for n in held]
    monkeypatch.setattr(census, "_expand_orbit", expand)
    monkeypatch.setattr(census, "check_budget", check)
    monkeypatch.setenv("MARKOFF_PADIC_MAX_MEM", "1536K")  # the level-1 solve needs 1.31 MB
    with pytest.raises(BudgetError, match="fiber proof"):
        orbits(101, 2, 0, "aut")
    monkeypatch.setenv("MARKOFF_PADIC_MAX_MEM", "32M")  # all thirty tables would need 60.6 MB
    assert orbits(401, 2, 0, "aut").transitive


def _word_perm(points, word, M):
    """Index in the sorted ``points`` of each point's image under ``word``, letter by letter, mod M."""
    act = {g: census._residue_action(g, M) for g in set(word)}
    triple = _decode(points, M)
    for g in reversed(word):  # the rightmost letter acts first
        triple = act[g](*triple)
    return census._locate(points, _encode(*triple, M))


def _digit_fiber(t, p, j, d):
    """The p^2 points of X_j over t, a point of X_{j-1}, scanned, and their free digits.

    The points are t + p^(j-1) h for the p^3 digit triples h that satisfy
    P = d mod p^j; a point's digit code is u + p v for its digits in the
    coordinates ``unit_partial`` frees.
    """
    M, q = p**j, p ** (j - 1)
    h = np.indices((p, p, p)).reshape(3, -1)
    x, y, z = (c % q + q * e for c, e in zip(t, h))
    on = (x * x + y * y + z * z - x * y % M * z - d) % M == 0
    free = [i for i in range(3) if i != unit_partial(t, p)]
    codes, digits = _encode(x[on], y[on], z[on], M), h[free[0], on] + p * h[free[1], on]
    order = np.argsort(codes)
    return codes[order], digits[order]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(p, k) for p in (3, 5, 7, 11, 13) for k in (2, 3, 4)]),
    st.integers(0, 10**6),
    st.sampled_from(("gamma", "aut")),
)
def test_fitted_fiber_tables_match_the_letter_by_letter_action(pk, D, gens):
    # every stabilizer's table, fitted from three frame points by runs,
    # against its letters applied one by one to a scanned fiber indexed by
    # its free digits; then the verdict against the proof run on those
    # permutations
    p, k = pk
    base, d = enumerate_points(p, 1, D), D % p**k
    fitted, checked = census._fiber_perms, []

    def letter_by_letter(t, p, j, d):
        fiber, digits = _digit_fiber(t, p, j, d)
        at = np.argsort(digits)  # the fiber index of each digit code
        assert np.array_equal(digits[at], np.arange(p * p))

        def table(word):
            try:
                return digits[_word_perm(fiber, word.letters, p**j)[at]]
            except RuntimeError:  # an image escaped the fiber
                return None

        return table

    def checking(t, p, j, d):
        perm, reference = fitted(t, p, j, d), letter_by_letter(t, p, j, d)

        def both(word):
            table, want = perm(word), reference(word)
            if want is None:
                assert table is None, (pk, D, word)
            else:
                assert np.array_equal(table, want), (pk, D, word)
                checked.append(word)
            return table

        return both

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_fiber_perms", checking)
        verdict = census._lifts_transitive(base, p, k, d, gens)
        mp.setattr(census, "_fiber_perms", letter_by_letter)
        assert verdict == census._lifts_transitive(base, p, k, d, gens)
    assert checked or not verdict


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(p, k) for p in (3, 5, 7, 11, 13, 101) for k in (2, 3, 4, 5)]),
    st.integers(0, 10**6),
)
def test_the_fiber_frame_is_the_lifts_of_t_at_unit_offsets(pk, D):
    # at every level the step's frame lies on X_j over t at free offsets
    # (0, 0), (1, 0), (0, 1), and the empty word fixes every code; carried
    # from the least mod-p point, the (0, 0) point at level k is t~, the
    # Newton root over its free coordinates
    p, k = pk
    base = enumerate_points(p, 1, D)
    assume(len(base))
    t = [int(c) for c in _decode(base[0], p)]
    free = [i for i in range(3) if i != unit_partial(t, p)]
    for j in range(2, k + 1):
        M, q = p**j, p ** (j - 1)
        frame = [fiber_step(t, u, v, p, j, D % p**k) for u, v in ((0, 0), (1, 0), (0, 1))]
        for triple, offsets in zip(frame, ((0, 0), (1, 0), (0, 1))):
            x, y, z = triple
            assert (x * x + y * y + z * z - x * y * z - D) % M == 0
            assert any(g % p for g in gradient(x, y, z))
            assert all(0 <= c < M and (c - s) % q == 0 for c, s in zip(triple, t))
            assert tuple((triple[i] - t[i]) % M // q for i in free) == offsets
        assert np.array_equal(census._fiber_perms(t, p, j, D % p**k)(AutWord()), np.arange(p * p))
        t = frame[0]
    assert t == newton_fiber([int(c) for c in _decode(base[0], p)], D, p, k)


def test_a_word_that_moves_the_base_point_escapes_the_fiber():
    base = enumerate_points(7, 1, 0)
    t = [int(c) for c in _decode(base[0], 7)]
    perm = census._fiber_perms(t, 7, 2, 0)
    assert np.array_equal(perm(AutWord()), np.arange(49))
    fiber = census._lift(base[:1], 7, 2, 0)
    moving = [g for g in ALL_LETTERS if [c % 7 for c in GENERATORS[g](*t)] != t]
    assert moving
    for g in moving:
        assert perm(AutWord((g,))) is None
        with pytest.raises(RuntimeError, match="escaped"):
            _word_perm(fiber, (g,), 49)


def test_deep_classes_are_proved_under_a_small_budget(monkeypatch):
    # a stabilizer is a few runs whatever its exponent, so the proof at
    # (3, 13) and (5, 9) holds a fiber of p^2 points and thirty short words
    # a level: under 2 MB both are proved one orbit with no level-k set lifted
    monkeypatch.setenv("MARKOFF_PADIC_MAX_MEM", "2M")
    lift, lifted = census._lift, []
    monkeypatch.setattr(census, "_lift", lambda *a: lifted.append(a[2]) or lift(*a))
    for p, k, D in ((3, 13, 5), (5, 9, 0)):
        tracemalloc.start()
        try:
            part = orbits(p, k, D, "aut")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = len(enumerate_points(p, 1, D)) * p ** (2 * (k - 1))
        assert part.transitive and part.orbit_sizes == [part.total] == [total], (p, k, D)
        assert lifted == [] and peak < 2 << 20, (p, k, D, peak)


def test_no_point_mod_p_lifts_to_no_point():
    # x^2 + y^2 + z^2 = xyz has no nonsingular point mod 3, and an empty
    # base builds no fiber-sized work arrays (3^22 offsets at level 12)
    assert len(enumerate_points(3, 1, 0)) == 0
    assert len(enumerate_points(3, 12, 0)) == 0
    assert orbits(3, 12, 0, "aut").orbit_sizes == []


def test_divisibility_theorem():
    for p, k in ((7, 1), (7, 2), (11, 1)):
        part, divisible = orbit_divisibility(p, k, 0)
        assert divisible, part.orbit_sizes
    with pytest.raises(ValueError, match="3 mod 4"):
        orbit_divisibility(5, 1, 0)
    with pytest.raises(ValueError, match="D = 0"):
        orbit_divisibility(7, 2, 49 + 7)


def test_divisibility_reads_the_given_partition(monkeypatch):
    # the hypotheses are refused before any orbit is computed, and a given
    # partition is read, not recomputed; a partition of another level or
    # prime is refused, not judged against p^k
    gamma, aut = orbits(7, 2, 0, "gamma"), orbits(7, 2, 0, "aut")
    level1, mod11 = orbits(7, 1, 0, "gamma"), orbits(11, 1, 0, "gamma")
    monkeypatch.setattr(census, "orbits", None)
    assert orbit_divisibility(7, 2, 0, gamma) == (gamma, True)
    cases = [(7, 2, 0, aut), (3, 1, 0, None), (5, 1, 0, None), (7, 2, 7, None)]
    cases += [(7, 2, 0, level1), (7, 1, 0, gamma), (7, 1, 0, mod11)]
    for p, k, D, part in cases:
        with pytest.raises(ValueError, match="divisibility theorem"):
            orbit_divisibility(p, k, D, part)
    with pytest.raises(ValueError, match="not gamma orbits at level 1 mod 7"):
        orbit_divisibility(7, 2, 0, level1)
    # a partition with an orbit of size 7 is not divisible by 49
    fake = census.OrbitPartition(7, 2, "gamma", 56, [49, 7])
    assert orbit_divisibility(7, 2, 0, fake)[1] is False


def test_catalog_D2():
    rep = finite_orbit_catalog(7, 4, "D2")
    orb = rep["orbits"][0]
    assert orb["gamma_size"] == 16 and orb["aut_size"] == 16
    assert rep["passed"]


def test_catalog_D3_sqrt2():
    rep = finite_orbit_catalog(7, 4, "D3-sqrt2")
    orb = rep["orbits"][0]
    assert orb["gamma_size"] == 12
    assert rep["passed"]
    with pytest.raises(ValueError, match="unavailable"):
        finite_orbit_catalog(5, 4, "D3-sqrt2")  # 2 is not a QR mod 5


def test_catalog_golden():
    rep = finite_orbit_catalog(11, 4, "golden")
    sizes = sorted(o["gamma_size"] for o in rep["orbits"])
    assert sizes == [40, 40, 72]
    assert rep["passed"]
    with pytest.raises(ValueError, match="unavailable"):
        finite_orbit_catalog(7, 4, "golden")  # 5 is not a QR mod 7


def test_catalog_sqrtD_both_groups():
    rep = finite_orbit_catalog(7, 4, "sqrtD")
    orb = rep["orbits"][0]
    assert orb["gamma_size"] == 2 and orb["aut_size"] == 6
    assert orb["matches"]


def test_catalog_cage_is_informational():
    rep = finite_orbit_catalog(7, 4, "D4-cage")
    assert not rep["available"] and "note" in rep


@pytest.mark.parametrize("case", census._CATALOG_CASES)
def test_catalog_needs_an_odd_prime_in_every_case(case):
    # checked before any case is handled: the cage, which enumerates
    # nothing, refuses p = 9 and p = 4 as the computed cases do
    for p in (9, 4):
        with pytest.raises(ValueError, match="^prime must be an odd prime"):
            finite_orbit_catalog(p, 3, case)


def test_catalog_sizes_monotone_in_precision():
    for case, p in (("D2", 7), ("D3-sqrt2", 7), ("golden", 11)):
        prev_g = prev_a = None
        for K in (5, 4, 3):
            rep = finite_orbit_catalog(p, K, case)
            for i, orb in enumerate(rep["orbits"]):
                if prev_g is not None:
                    assert orb["gamma_size"] <= prev_g[i]
                    assert orb["aut_size"] <= prev_a[i]
            prev_g = [o["gamma_size"] for o in rep["orbits"]]
            prev_a = [o["aut_size"] for o in rep["orbits"]]


def test_reduction_of_orbit_is_orbit_of_reduction():
    # the mod-p image of a level-2 orbit partition refines to the level-1 one
    part2 = orbits(5, 2, 0, gens="gamma")
    part1 = orbits(5, 1, 0, gens="gamma")
    pts2 = enumerate_points(5, 2, 0)
    maps1 = _gen_maps(5, 1, "gamma")
    pts1 = enumerate_points(5, 1, 0)
    # reduce every level-2 point and BFS it at level 1: same partition
    import numpy as np

    M = 25
    x, y, z = _decode(pts2, M)
    reduced = np.unique((x % 5) + 5 * (y % 5) + 25 * (z % 5))
    assert np.array_equal(reduced, pts1)
