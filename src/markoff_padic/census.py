"""Enumeration and orbit structure of surface points over Z/p^k.

Points are encoded as single integers x + y*M + z*M^2 with M = p^k, so sets
of points are sorted int64 arrays and generator images are vectorized numpy
expressions.  A code is below M^3, so it fits in int64 only while
M < 2^21; larger p^k is refused up front.  Level-1 sets solve the
quadratic in z: for fixed (x, y) the surface mod p is
z^2 - xy*z + (x^2 + y^2 - D) = 0, so one table of square roots mod p gives
every point in O(p^2) work (``_solve_level1``), written block by block
into one reservation of p(p + 5) codes, a bound on the points mod p.
Higher levels lift each nonsingular mod-p point through its smooth fiber
of exactly p^{2(k-1)} points instead of scanning p^{3k} triples.
``_lift_all`` keeps a numpy chord-Newton over ``surface.solve_fiber``'s
quadratic, for the coordinate that ``surface.unit_partial`` picks.  A count
needs no lift at all: ``count_points`` multiplies the mod-p points by the
fiber size.  The O(p^{3k}) scan of every triple (``_brute_shard``) stays as
the reference at every level.

Sets are built and deduplicated by sorting, never by numpy's ``unique``,
which on numpy 2.x hashes int64 input and runs tens of times slower.
The solve, the scan and the lift produce each point once (distinct roots
of one quadratic, distinct x rows, disjoint fibers over distinct mod-p
points), so they only sort; the orbit BFS, whose generator images collide,
sorts and drops repeated neighbours.

Generator images evaluate ``surface.GENERATORS``, the one definition of the
action, on residues mod M (numpy arrays in the orbit BFS, int triples in
``residue_bfs``) and reduce only the coordinates a letter rewrites: the
others are inputs, already reduced, and reducing all three measured 5-17%
slower in the orbit BFS.

The orbit BFS runs the three Vieta involutions only.  The other six
letters generate a group H of order 24 that normalizes the Vieta group, so
an Aut orbit is the union of the Vieta orbits of the H-images of one
point: after a Vieta orbit is expanded, H's letters act on its seed alone
and each unvisited image seeds a further Vieta orbit (``orbits`` gives the
argument).  ``partition`` is the seed loop for any sorted set and maps
(``certify`` runs it on chart residues): the next orbit's seed, the least
unvisited index, comes from one vectorized forward scan of the visited
flags.  A request over the memory budget raises ``BudgetError``.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .padic import PadicInt, _check_odd_prime, sqrt
from .surface import ALL_LETTERS, VIETA_LETTERS, generator_formula, gradient, unit_partial

DEFAULT_MAX_MEM = 1 << 30  # bytes, overridden by MARKOFF_PADIC_MAX_MEM
MAX_MODULUS = 1 << 21  # p^k must stay below this so codes < M^3 fit in int64
SOLVE_BLOCK = 1 << 14  # (x, y) cells per block of the level-1 solve


class BudgetError(ValueError):
    """A computation refused up front: its byte estimate exceeds the memory budget."""


def _max_mem(explicit=None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get("MARKOFF_PADIC_MAX_MEM")
    if not raw:
        return DEFAULT_MAX_MEM
    raw = raw.strip().upper()
    mult = 1
    for suffix, m in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if raw.endswith(suffix):
            mult = m
            raw = raw[:-1]
            break
    return int(raw) * mult


def check_budget(need: int, what: str, max_mem=None, advice: str = "") -> None:
    """Raise ``BudgetError`` when ``what`` needs more than ``_max_mem(max_mem)`` bytes."""
    if need > _max_mem(max_mem):
        raise BudgetError(
            f"budget exceeded: {what} needs ~{need} bytes; "
            f"{advice}raise MARKOFF_PADIC_MAX_MEM"
        )


def _code_modulus(p: int, k: int) -> int:
    """M = p^k, refused when point codes up to M^3 - 1 would overflow int64."""
    M = p**k
    if M >= MAX_MODULUS:
        raise ValueError(
            f"p^k = {p}^{k} = {M} is too large: point codes need p^k < 2^21 "
            "to fit in int64"
        )
    return M


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """Distinct values of ``a`` in ascending order: sort, drop repeated neighbours."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _decode(codes, M):
    return codes % M, (codes // M) % M, codes // (M * M)


def _encode(x, y, z, M):
    return x + M * (y + M * z)


def _residue_action(letter: str, M: int):
    """One letter on residues mod M, python ints or numpy arrays alike."""
    formula = generator_formula(letter)

    def act(x, y, z):
        return tuple(
            c if c is x or c is y or c is z else c % M for c in formula(x, y, z)
        )

    return act


def _letter_func(letter: str, M: int):
    """Vectorized action of one generator on encoded point arrays."""
    act = _residue_action(letter, M)
    return lambda codes: _encode(*act(*_decode(codes, M)), M)


def _family(gens: str):
    letters = {"gamma": VIETA_LETTERS, "aut": ALL_LETTERS}.get(gens)
    if letters is None:
        raise ValueError("gens must be 'gamma' or 'aut'")
    return letters


def _gen_maps(p: int, k: int, gens: str):
    """Every letter's map of the family, in table order."""
    return [_letter_func(g, p**k) for g in _family(gens)]


def _vieta_and_joins(p: int, k: int, gens: str):
    """The three Vieta maps the BFS runs, and the maps of the family's other letters.

    The other letters are H's six for "aut" and none for "gamma"; they only
    join Vieta orbits (see ``orbits``).
    """
    M = p**k
    joins = [g for g in _family(gens) if g not in VIETA_LETTERS]
    vieta = [_letter_func(g, M) for g in VIETA_LETTERS]
    return vieta, [_letter_func(g, M) for g in joins]


def _brute_shard(p: int, k: int, d: int) -> np.ndarray:
    """Encoded nonsingular points mod p^k from a scan of every triple, x by x."""
    M = p**k
    y = np.repeat(np.arange(M, dtype=np.int64), M)
    z = np.tile(np.arange(M, dtype=np.int64), M)
    yz = (y * z) % M
    y2z2 = (y * y + z * z) % M
    out = [np.empty(0, dtype=np.int64)]
    for x in range(M):
        val = (x * x + y2z2 - x * yz) % M
        mask = val == d
        if not mask.any():
            continue
        ys, zs = y[mask], z[mask]
        nonsing = np.any(np.array(gradient(x, ys, zs)) % p != 0, axis=0)
        out.append(_encode(np.int64(x), ys[nonsing], zs[nonsing], M))
    return np.concatenate(out)


def _block_rows(p: int) -> int:
    """x rows per block of the level-1 solve: about SOLVE_BLOCK cells, at most p rows."""
    return min(p, max(1, SOLVE_BLOCK // p))


def _solve_level1(p: int, d: int) -> np.ndarray:
    """Encoded nonsingular points mod p, z solved from its quadratic per (x, y).

    The roots are z = (xy +- sqrt(disc)) / 2 with disc = (xy)^2 - 4(x^2 + y^2 - d),
    read from one table of square roots mod p, which is complete only for
    an odd prime p.  x runs in blocks of about SOLVE_BLOCK cells, so the work
    arrays stay small.  Each block writes its codes into one reservation of
    p(p + 5) codes, which is shrunk to the codes written at the end.

    That many codes hold every point mod p.  For fixed x the points solve
    Q(y, z) = c with Q = y^2 - xyz + z^2 = (y - xz/2)^2 - (x^2 - 4) z^2 / 4
    and c = d - x^2.  Unless x^2 = 4, Q is nondegenerate and takes each value
    c != 0 exactly p - (x^2 - 4 | p) <= p + 1 times.  At most four x have
    x^2 = 4 or c = 0, and each of those has at most 2p points.  So there are
    at most (p - 4)(p + 1) + 8p < p(p + 5) points, and for p = 3 the two
    roots per (x, y) give 2p^2 < p(p + 5).  The reservation stays near the
    codes' own size because numpy asks for huge pages on arrays of 4 MiB or
    more: on heap memory that request outlives the array, and the pages of
    an oversized reservation then come back as huge pages to later arrays.
    """
    _check_odd_prime(p)
    t = np.arange(p, dtype=np.int64)
    t2 = t * t
    root = np.full(p, -1, dtype=np.int64)
    root[t2 % p] = t
    half = (p + 1) // 2
    rows = _block_rows(p)
    out = np.empty(p * (p + 5), dtype=np.int64)
    n = 0
    for x0 in range(0, p, rows):
        xy = t[x0 : x0 + rows, None] * t % p
        r = root[(xy * xy - 4 * (t2[x0 : x0 + rows, None] + t2 - d)) % p]
        i, y = np.nonzero(r >= 0)
        x, xy, r = i + x0, xy[i, y], r[i, y]
        two = r > 0  # a nonzero discriminant has two distinct roots
        x, y = np.concatenate([x, x[two]]), np.concatenate([y, y[two]])
        z = np.concatenate([xy + r, xy[two] - r[two]]) * half % p
        nonsing = np.any(np.array(gradient(x, y, z)) % p != 0, axis=0)
        codes = _encode(x[nonsing], y[nonsing], z[nonsing], p)
        out[n : n + codes.size] = codes
        n += codes.size
    out.resize(n, refcheck=False)
    return out


def enumerate_points(p, k, D, mode="auto", workers=1, max_mem=None) -> np.ndarray:
    """Sorted encoded points of the surface over Z/p^k.

    Mode "auto" solves the quadratic in z at k = 1 (O(p^2), p an odd prime)
    and lifts above.  Mode "brute" scans all p^{3k} triples, the reference
    at every level; mode "lift" builds levels k >= 2 from the mod-p points
    through their smooth fibers.  Everything runs in this one process.
    ``workers`` is accepted and ignored: ``count_points`` passes the CLI's
    ``--workers`` on to its level-1 call, where ``perfbench/tracer.py``
    keys its scan timings on it, and every report echoes it.
    """
    M = _code_modulus(p, k)
    d = D.residue_mod(k) if isinstance(D, PadicInt) else D % M
    if mode == "auto" and k == 1:
        # 32 bytes per (x, y) for the codes, which are reserved once at
        # p(p + 5) int64, plus at most a dozen int64 work arrays per block:
        # the traced peak is 17.6 MB against 65.4 MB budgeted at p = 1447
        need = 8 * (4 * p * p + 12 * _block_rows(p) * p)
        check_budget(need, "level-1 solve", max_mem)
        points = _solve_level1(p, d)
    elif mode == "brute":
        check_budget(8 * M * M * 4, "brute scan", max_mem, "use mode='lift' (k >= 2) or ")
        points = _brute_shard(p, k, d)
    elif mode in ("auto", "lift"):
        if k < 2:
            raise ValueError("lift mode needs k >= 2")
        base = enumerate_points(p, 1, d % p, max_mem=max_mem)
        fiber = p ** (2 * (k - 1))
        check_budget(8 * len(base) * fiber * 4, "lifting", max_mem)
        return _lift_all(base, p, k, d)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    points.sort()
    return points


def _lift_all(base_codes: np.ndarray, p: int, k: int, d: int) -> np.ndarray:
    """Lift every mod-p point through its fiber of p^{2(k-1)} points."""
    M = p**k
    r = p ** (k - 1)
    steps = np.arange(r, dtype=np.int64) * p
    free1 = np.repeat(steps, r)
    free2 = np.tile(steps, r)
    fiber = r * r
    out = np.empty(len(base_codes) * fiber, dtype=np.int64)
    for j, code in enumerate(base_codes):
        triple = [int(c) for c in _decode(np.int64(code), p)]
        solved = unit_partial(triple, p)
        w = pow(gradient(*triple)[solved] % p, -1, M)
        c = np.full_like(free1, triple.pop(solved))
        a = (triple[0] + free1) % M
        b = (triple[1] + free2) % M
        ab = (a * b) % M
        rest = (a * a % M + b * b % M - d) % M
        for _ in range(k - 1):
            f_val = (c * c % M + rest - ab * c % M) % M
            c = (c - f_val * w) % M
        coords = [a, b]
        coords.insert(solved, c)
        out[j * fiber : (j + 1) * fiber] = _encode(*coords, M)
    out.sort()
    return out


def count_points(p, k, D, workers=1) -> dict:
    """Cardinality of the level-k point set, with the p(p-3) formula check.

    Each nonsingular mod-p point has exactly p^{2(k-1)} lifts mod p^k (its
    smooth fiber, which ``_lift_all`` walks), so the count is the number of
    mod-p points times p^{2(k-1)}, and nothing above level 1 is built.
    p^k >= 2^21 is still refused, as ``enumerate_points`` refuses it.
    ``workers`` only reaches the level-1 ``enumerate_points`` call, which
    ignores it; it is passed on so the CLI's ``--workers`` still keys the
    tracer's timings.
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    _code_modulus(p, k)
    d = (D.residue_mod(k) if isinstance(D, PadicInt) else D) % p
    count = len(enumerate_points(p, 1, d, workers=workers)) * p ** (2 * (k - 1))
    applicable = k == 1 and p % 4 == 3 and d == 0
    report = {
        "count": count,
        "formula_applicable": applicable,
        "formula_expected": p * (p - 3) if applicable else None,
        "formula_holds": (count == p * (p - 3)) if applicable else None,
    }
    return report


@dataclass
class OrbitPartition:
    """Orbits of the generator action on the level-k point set."""

    p: int
    level: int
    gens: str
    total: int
    orbit_sizes: list[int] = field(default_factory=list)
    representatives: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def transitive(self) -> bool:
        return len(self.orbit_sizes) == 1


def _visit_images(points: np.ndarray, maps, idx: np.ndarray, visited) -> np.ndarray:
    """Indices of the unvisited images of ``points[idx]`` under ``maps``, now marked."""
    imgs = _sorted_distinct(np.concatenate([m(points[idx]) for m in maps]))
    found = np.searchsorted(points, imgs)
    if np.any(found >= len(points)) or np.any(points[found] != imgs):
        raise RuntimeError("generator image escaped the point set")
    new = found[~visited[found]]
    visited[new] = True
    return new


def _expand_orbit(points: np.ndarray, maps, seed_idx: int, visited, joins=()) -> int:
    """Size of the orbit of ``points[seed_idx]``, marked in ``visited``.

    A round runs the BFS under ``maps`` from its seeds; the unvisited
    images of those seeds under ``joins`` seed the next round.
    """
    seeds = np.array([seed_idx], dtype=np.int64)
    visited[seed_idx] = True
    size = 0
    while seeds.size:
        size += seeds.size
        frontier = seeds
        while frontier.size:
            frontier = _visit_images(points, maps, frontier, visited)
            size += frontier.size
        seeds = _visit_images(points, joins, seeds, visited) if joins else frontier
    return size


def orbits(p, k, D, gens="gamma", points=None, maps=None) -> OrbitPartition:
    """Partition of the level-k point set under the chosen generator family.

    With ``maps`` given, the BFS runs those maps and nothing else.
    Otherwise it runs the three Vieta involutions, and for "aut" joins
    their orbits by H, the group of order 24 that the double sign changes
    ex, ey, ez and the transpositions pxy, pyz, pzx generate.  Each h in H
    is an involution with h s_a h = s_pi(a) for a permutation pi of the
    Vieta letters, so h maps the Vieta orbit of t onto the Vieta orbit of
    h(t), and the Aut orbit of t is the union of the Vieta orbits of H t.
    Once the Vieta orbit of t is expanded, the six letters act on t alone,
    and every unvisited image seeds a further Vieta orbit of the same Aut
    orbit; those seeds are expanded and mapped by H in turn.  Every image
    is still located in the point set: an H-image of a non-seed point lies
    in a Vieta orbit that is expanded, and so checked, in full.  The seeds
    are the least unvisited indices (``partition``).
    """
    M = _code_modulus(p, k)
    if points is None:
        points = enumerate_points(p, k, D)
    joins = ()
    if maps is None:
        maps, joins = _vieta_and_joins(p, k, gens)
    sizes, seeds = partition(points, maps, joins)
    reps = list(zip(*(c.tolist() for c in _decode(points[seeds], M))))
    return OrbitPartition(p, k, gens, int(len(points)), sizes, reps)


def partition(points: np.ndarray, maps, joins=()) -> tuple[list[int], list[int]]:
    """Orbit sizes and seed indices of the sorted ``points`` under ``maps``.

    Each orbit is expanded by ``_expand_orbit`` (the BFS under ``maps``,
    its rounds joined by ``joins``) from its seed, the least unvisited
    index, found by one forward scan of the visited flags per orbit.
    """
    visited = np.zeros(len(points), dtype=bool)
    sizes, seeds = [], []
    seed = 0
    while seed < len(points):
        sizes.append(int(_expand_orbit(points, maps, seed, visited, joins)))
        seeds.append(seed)
        seed += int(np.argmin(visited[seed:]))  # the first False, or 0 if none
        if visited[seed]:
            break
    return sizes, seeds


def check_transitivity(p, k, D, gens="aut", points=None) -> bool:
    """True iff the generator action has a single orbit at level k.

    The orbit of the first point is expanded as in ``orbits``: Vieta
    orbits, joined by H for "aut".
    """
    _code_modulus(p, k)
    if points is None:
        points = enumerate_points(p, k, D)
    if len(points) == 0:
        return False
    maps, joins = _vieta_and_joins(p, k, gens)
    visited = np.zeros(len(points), dtype=bool)
    size = _expand_orbit(points, maps, 0, visited, joins)
    return size == len(points)


def check_orbit_divisibility(p, k, D) -> dict:
    """Verify p^k divides every Vieta-orbit size (p = 3 mod 4, D = 0 mod p^k)."""
    if p % 4 != 3 or p <= 3:
        raise ValueError("divisibility theorem needs p > 3 with p = 3 mod 4")
    d = D.residue_mod(k) if isinstance(D, PadicInt) else D % p**k
    if d != 0:
        raise ValueError("divisibility theorem needs D = 0 mod p^k")
    part = orbits(p, k, 0, gens="gamma")
    modulus = p**k
    sizes = sorted(part.orbit_sizes)
    return {
        "p": p,
        "k": k,
        "orbit_sizes": sizes,
        "all_divisible": all(s % modulus == 0 for s in sizes),
    }


# -- finite-orbit catalog ----------------------------------------------------

_CATALOG_CASES = ("sqrtD", "D4-cage", "D2", "D3-sqrt2", "golden")


def residue_bfs(start: tuple[int, int, int], M: int, letters, max_depth=None):
    """Breadth-first walk of residue triples mod M under the generator letters.

    Yields (triple, word) in discovery order, starting with (start, ()).  The
    word maps start to the triple and is built as (g,) + parent word, so its
    length is the depth; triples at max_depth are yielded but not expanded.
    """
    steps = [(g, _residue_action(g, M)) for g in letters]
    seen = {start}
    queue = deque([(start, ())])
    yield start, ()
    while queue:
        triple, word = queue.popleft()
        if max_depth is not None and len(word) >= max_depth:
            continue
        for g, act in steps:
            image = act(*triple)
            if image not in seen:
                seen.add(image)
                image_word = (g,) + word
                yield image, image_word
                queue.append((image, image_word))


def _bfs_exact(start: tuple[int, int, int], p: int, K: int, letters) -> int:
    """Orbit size of a residue triple mod p^K under the generator letters."""
    return sum(1 for _ in residue_bfs(start, p**K, letters))


def finite_orbit_catalog(p: int, K: int, case: str) -> dict:
    """BFS the cataloged finite orbits at precision K and compare sizes.

    Orbit sizes are computed both under the Vieta subgroup and under the
    full generator set; a reduction can only merge points, so undersized
    results are reported as collapses rather than failures.
    """
    if case not in _CATALOG_CASES:
        raise ValueError(f"unknown catalog case {case!r}")
    if K < 3:
        raise ValueError("precision >= 3 required")
    report = {"case": case, "p": p, "K": K, "available": True, "orbits": []}
    if case == "D4-cage":
        report["available"] = False
        report["note"] = (
            "the D=4 family names no representative point: finite orbits "
            "there are the points outside the cage, so nothing is enumerated"
        )
        return report

    def padic(n):
        return PadicInt(p, K, n)

    try:
        if case == "sqrtD":
            d = padic(1)
            entries = [((0, 0, 1), d, 6)]
        elif case == "D2":
            entries = [((1, 1, 1), padic(2), 16)]
        elif case == "D3-sqrt2":
            s2 = sqrt(padic(2))
            entries = [((1, s2.residue, s2.residue), padic(3), 12)]
        elif case == "golden":
            s5 = sqrt(padic(5))
            inv2 = padic(2).invert()
            phi = (padic(1) + s5) * inv2
            phi_inv = phi - 1
            d_plus = (padic(5) + s5) * inv2
            d_minus = (padic(5) - s5) * inv2
            entries = [
                ((0, phi_inv.residue, phi.residue), padic(3), 72),
                ((phi.residue, phi.residue, phi.residue), d_plus, 40),
                (
                    ((-phi_inv).residue, (-phi_inv).residue, (-phi_inv).residue),
                    d_minus,
                    40,
                ),
            ]
    except ValueError as exc:
        raise ValueError(f"catalog case unavailable for this p: {exc}") from exc

    for start, d, expected in entries:
        gamma_size = _bfs_exact(start, p, K, VIETA_LETTERS)
        aut_size = _bfs_exact(start, p, K, ALL_LETTERS)
        report["orbits"].append(
            {
                "point": list(start),
                "D": d.residue,
                "expected": expected,
                "gamma_size": gamma_size,
                "aut_size": aut_size,
                "matches": expected in (gamma_size, aut_size),
                "collapsed": max(gamma_size, aut_size) < expected,
            }
        )
    report["passed"] = all(o["matches"] for o in report["orbits"])
    return report
