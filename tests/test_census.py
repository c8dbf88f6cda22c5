"""Point enumeration, counting, orbits, divisibility, and the catalog."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoff_padic import census
from markoff_padic.census import (
    BudgetError,
    _bfs_exact,
    _decode,
    _encode,
    _gen_maps,
    _sorted_distinct,
    check_orbit_divisibility,
    check_transitivity,
    count_points,
    enumerate_points,
    finite_orbit_catalog,
    orbits,
    partition,
    residue_bfs,
)
from markoff_padic.padic import PadicInt
from markoff_padic.surface import (
    ALL_LETTERS,
    GENERATORS,
    VIETA_LETTERS,
    is_point,
    lift_point,
)

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
    for (p, k, D) in ((5, 2, 0), (7, 2, 0), (11, 2, 0), (5, 3, 1), (13, 2, 0)):
        a = enumerate_points(p, k, D, mode="brute")
        b = enumerate_points(p, k, D, mode="lift")
        assert np.array_equal(a, b), (p, k, D)


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
        runs += [((p, k, D), "brute"), ((p, k, D), "lift")]
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
        enumerate_points(5, 2, 0, mode="lift", max_mem=3199)


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
    pts = np.arange(4, dtype=np.int64)
    with pytest.raises(ValueError, match="2\\^21"):
        orbits(131, 3, 0, points=pts)
    with pytest.raises(ValueError, match="2\\^21"):
        check_transitivity(131, 3, 0, points=pts)
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
        enumerate_points(13, 4, 0, mode="lift", max_mem=10**6)
    with pytest.raises(ValueError, match="k >= 2"):
        enumerate_points(7, 1, 0, mode="lift")


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
    a = orbits(7, 2, 0, points=pts, maps=maps)
    b = orbits(7, 2, 0, points=pts, maps=list(reversed(maps)))
    assert a.orbit_sizes == b.orbit_sizes
    assert a.representatives == b.representatives


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
    sx = _letter_func("sx", 7)
    part = orbits(7, 1, 0, points=pts, maps=[sx])
    assert max(part.orbit_sizes) <= 2
    assert not part.transitive


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
    # which an explicit maps list runs
    p, k, D = case
    pts = enumerate_points(p, k, D)
    joined = orbits(p, k, D, "aut")
    plain = orbits(p, k, D, points=pts, maps=_gen_maps(p, k, "aut"))
    assert joined.orbit_sizes == plain.orbit_sizes
    assert joined.representatives == plain.representatives
    assert check_transitivity(p, k, D, "aut") == (len(plain.orbit_sizes) == 1)


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
    with pytest.raises(RuntimeError, match="generator image escaped the point set"):
        orbits(p, k, D, gens="aut", points=subset)
    with pytest.raises(RuntimeError, match="generator image escaped the point set"):
        check_transitivity(p, k, D, "aut", points=subset)
    # under the Vieta maps alone the subset is closed
    assert orbits(p, k, D, gens="gamma", points=subset).orbit_sizes == [2, 72]


def test_transitivity_examples():
    assert check_transitivity(7, 1, 0, "aut")
    assert check_transitivity(7, 2, 0, "aut")
    assert check_transitivity(5, 1, 3, "aut")


def test_divisibility_theorem():
    for p, k in ((7, 1), (7, 2), (11, 1)):
        rep = check_orbit_divisibility(p, k, 0)
        assert rep["all_divisible"], rep
    with pytest.raises(ValueError, match="3 mod 4"):
        check_orbit_divisibility(5, 1, 0)
    with pytest.raises(ValueError, match="D = 0"):
        check_orbit_divisibility(7, 2, 49 + 7)


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
