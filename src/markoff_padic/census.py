"""Enumeration and orbit structure of surface points over Z/p^k.

Points are encoded as single integers x + y*M + z*M^2 with M = p^k, so sets
of points are sorted int64 arrays and generator images are vectorized numpy
expressions.  A code is below M^3, so it fits in int64 only while
M < 2^21; larger p^k is refused up front.  Level-1 sets solve the
quadratic in z: for fixed (x, y) the surface mod p is
z^2 - xy*z + (x^2 + y^2 - D) = 0, so one table of square roots mod p gives
every point in O(p^2) work (``_solve_level1``), written block by block
into one reservation of p(p + 5) codes, a bound on the points mod p.
Higher levels lift each mod-p point through its smooth fiber (below)
instead of scanning p^{3k} triples.  ``enumerate_points``' mode "brute",
the O(p^{3k}) scan of every triple (``_brute_shard``), stays as the
reference at every level.

The smooth fiber.  A mod-p point has p^{2(k-1)} lifts mod p^k, p^2 over
each point t of X_{j-1} at level j, one per pair of free offsets (u, v)
(``surface.fiber_step``): ``count_points`` multiplies by that, ``_lift``
steps level by level at all p^2 offsets and the fiber proof at three.
A word w fixing t mod p^(j-1) has integer coefficients, so w(t + p^(j-1)
h) = w(t) + p^(j-1) Dw(t) h mod p^j sends (u, v) to b + A (u, v) mod p;
``affine_table`` tabulates that map on the codes u + p v from the images
of the frame (0, 0), (1, 0), (0, 1), for ``_fiber_perms`` and
``certify``'s residual stage.

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
slower in the orbit BFS.  The fiber fit (above) maps its three frame
points with ``surface.apply_word`` on ``PadicInt``, each run one companion power.

The orbit BFS runs the three Vieta involutions only.  The other six
letters generate a group H of order 24 that normalizes the Vieta group, so
an Aut orbit is the union of the Vieta orbits of the H-images of one
point: after a Vieta orbit is expanded, H's letters act on its seed alone
and each unvisited image seeds a further Vieta orbit (``orbits`` gives the
argument).  ``partition`` is the seed loop for any sorted set and maps
(``certify`` runs it on chart residues): the next orbit's seed, the least
unvisited index, comes from one vectorized forward scan of the visited
flags.  A request over the memory budget raises ``BudgetError``.

A single orbit at level k >= 2 is proved without enumerating level k.  If
the group is transitive on X_{j-1} and the stabilizer G_t of one point t
is transitive on the fiber over t, the p^2 points of X_j that reduce to
t, then it is transitive on X_j.  At level j, t is the least mod-p point
for j = 2 and then the last fiber's frame point (0, 0): t~ mod p^(j-1)
for the p-adic point t~ over it that keeps its free coordinates.  The
elements of G_t are rotation powers, the paper's stabilizers and
``certify``'s: r_c = ``surface.rotation(c, 1)``, the Vieta pair fixing
coordinate c, acts on the other two as C(c)^2, and w = h^-1 r_c h for
each of the ten ``surface.CONJUGATORS`` h and c = x, y, z.  These are
Vieta words, in both the Vieta group and Aut, so the family's letters play
no part in the fiber.  With n the return time of t mod p under w, w^n
fixes t mod p; each level tries the three with h = () first, then adds
the nine with h of length 1 and the eighteen of length 2 while the fiber
stays split.  They generate a subgroup of G_t, so one orbit under them on
the fiber is a proof, and several orbits prove nothing: ``orbits`` then
enumerates and runs the BFS.  Either way the partition is exact.  Each
w^n is a word of at most three runs, whatever n, so a level fits at most
thirty tables and runs a BFS of p^2 points a stage, at any depth; the
proof holds O(|X_1| + p^2) arrays, budgeted up front.

The exponent.  Suppose w^n fixes t~ mod p^m with m >= 1, so w^n(t~) =
t~ + p^m c.  Its linear part J at t~ is unipotent mod p: r_c^n fixes
s = h(t) mod p and acts on s's other two coordinates (a, b) by C^(2n),
which fixes (a, b) mod p; unless (a, b) = 0 mod p, 1 is an eigenvalue,
and as the determinant is 1 both are.  J is conjugate mod p to the linear
part of r_c^n at h(t~), block triangular with C^(2n) and 1 on the
diagonal.  Then w^(nr)(t~) = t~ + p^m (I + J + ... + J^(r-1)) c mod
p^(m+1), and with J = I + N, N^3 = 0 mod p, the sum is r I + C(r, 2) N +
C(r, 3) N^2, 0 mod p at r = p^2, and at r = p when p >= 5.  So
multiplying n by p while w^n moves t mod p^(j-1) ends, after one factor a
level at p >= 5.  The exception (a, b) = 0 mod p puts s among the six
points with two coordinates 0 mod p, an Aut orbit of its own; X_1, one
orbit, is then those six points, t~ keeps its two zeros exactly, and so
does every Vieta image of it, which w^n then fixes exactly.
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .padic import PadicInt, _check_odd_prime, residue_of, sqrt
from .surface import (
    ALL_LETTERS,
    CONJUGATORS,
    VIETA_LETTERS,
    AutWord,
    SurfacePoint,
    apply_word,
    fiber_step,
    generator_formula,
    gradient,
    rotation,
    unit_partial,
)

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
    m = re.fullmatch(r"([0-9]+)([KMG]?)", raw.strip().upper())
    if m is None:
        raise ValueError(
            "MARKOFF_PADIC_MAX_MEM must be a byte count with an optional K, M "
            f"or G suffix (e.g. 512M), got {raw!r}"
        )
    return int(m[1]) << {"": 0, "K": 10, "M": 20, "G": 30}[m[2]]


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
    """Every letter's map of the family, in table order: the three Vieta maps first.

    The orbit BFS runs ``[:3]``; the rest, H's six letters for "aut" and
    none for "gamma", only join Vieta orbits (see ``orbits``).
    """
    return [_letter_func(g, p**k) for g in _family(gens)]


def _brute_shard(p: int, k: int, d: int) -> np.ndarray:
    """Encoded nonsingular points mod p^k from a scan of every triple, x by x.

    One M x M array, y down the rows and z along the columns, is updated in
    place to y^2 + z(z - xy) + x^2 mod M (xy reduced first: values < 3 M^2).
    """
    M = p**k
    y = np.arange(M, dtype=np.int64)[:, None]
    z = y.reshape(1, M)
    val = np.empty((M, M), dtype=np.int64)
    out = [np.empty(0, dtype=np.int64)]
    for x in range(M):
        np.copyto(val, z)
        val -= x * y % M
        val *= z
        val += y * y + x * x
        val %= M
        ys, zs = np.divmod(np.flatnonzero(val == d), M)
        nonsing = np.any(np.array(gradient(x, ys, zs)) % p != 0, axis=0)
        out.append(_encode(np.int64(x), ys[nonsing], zs[nonsing], M))
    del val
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
    and at k >= 2 lifts the mod-p points through their smooth fibers.  Mode
    "brute" scans all p^{3k} triples, the reference for both at every
    level.  Everything runs in this one process.
    ``workers`` is accepted and ignored: ``count_points`` passes the CLI's
    ``--workers`` on to its level-1 call, where ``perfbench/tracer.py``
    keys its scan timings on it, and every report echoes it.
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    M = _code_modulus(p, k)
    d = residue_of(D, p, k)
    if mode == "auto" and k == 1:
        # 32 bytes per (x, y) for the codes, which are reserved once at
        # p(p + 5) int64, plus at most a dozen int64 work arrays per block:
        # the traced peak is 17.6 MB against 65.4 MB budgeted at p = 1447
        need = 8 * (4 * p * p + 12 * _block_rows(p) * p)
        check_budget(need, "level-1 solve", max_mem)
        points = _solve_level1(p, d)
    elif mode == "brute":
        # at most 2 M^2 points (p(p + 5) mod p, times p^(2k - 2) per fiber), their
        # codes held twice while joined, once the 9 M^2 bytes of work are freed
        check_budget(8 * M * M * 4, "brute scan", max_mem, "use mode='auto' or ")
        points = _brute_shard(p, k, d)
    elif mode == "auto":
        base = enumerate_points(p, 1, d % p, max_mem=max_mem)
        fiber = p ** (2 * (k - 1))
        check_budget(8 * len(base) * fiber * 4, "lifting", max_mem)
        return _lift(base, p, k, d)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    points.sort()
    return points


def _lift(base_codes: np.ndarray, p: int, k: int, d: int) -> np.ndarray:
    """Sorted codes mod p^k of the points over each point mod p in ``base_codes``.

    Each fiber has p^{2(k-1)} points: ``fiber_step`` takes the points of
    X_{j-1} over the mod-p point to all p^2 free offsets in X_j, for j = 2..k.
    """
    M = p**k
    u, v = (c.ravel() for c in np.indices((p, p), dtype=np.int64))
    fiber = p ** (2 * (k - 1))
    out = np.empty(len(base_codes) * fiber, dtype=np.int64)
    for i, code in enumerate(base_codes):
        t = _decode(np.full((1, 1), code), p)
        for j in range(2, k + 1):
            t = [c.reshape(-1, 1) for c in fiber_step(t, u, v, p, j, d)]
        out[i * fiber : (i + 1) * fiber] = _encode(*t, M).ravel()
    out.sort()
    return out


def count_points(p, k, D, workers=1) -> dict:
    """Cardinality of the level-k point set, with the p(p-3) formula check.

    Each nonsingular mod-p point has exactly p^{2(k-1)} lifts mod p^k (its
    smooth fiber, which ``_lift`` walks), so the count is the number of
    mod-p points times p^{2(k-1)}, and nothing above level 1 is built.
    p^k >= 2^21 is still refused, as ``enumerate_points`` refuses it.
    ``workers`` only reaches the level-1 ``enumerate_points`` call, which
    ignores it; it is passed on so the CLI's ``--workers`` still keys the
    tracer's timings.
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    _code_modulus(p, k)
    d = residue_of(D, p, k) % p
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
    """Orbits of the generator action on the level-k point set.

    ``representatives`` are the least codes of the orbits, in orbit order.
    A partition proved transitive without enumerating level k holds a
    function in their place, called on the first read.
    """

    p: int
    level: int
    gens: str
    total: int
    orbit_sizes: list[int] = field(default_factory=list)
    _reps: list[tuple[int, int, int]] | Callable[[], list[tuple[int, int, int]]] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def representatives(self) -> list[tuple[int, int, int]]:
        if callable(self._reps):
            self._reps = self._reps()
        return self._reps

    @property
    def transitive(self) -> bool:
        return len(self.orbit_sizes) == 1


def _locate(points: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Indices of ``images`` in the sorted ``points``, every one of which must be there."""
    found = np.searchsorted(points, images)
    if np.any(found >= len(points)) or np.any(points[found] != images):
        raise RuntimeError("generator image escaped the point set")
    return found


def _visit_images(points: np.ndarray, maps, idx: np.ndarray, visited) -> np.ndarray:
    """Indices of the unvisited images of ``points[idx]`` under ``maps``, now marked.

    The indices are taken in chunks of at most 2 len(points) images, each
    chunk marked before the next, so many maps on a large frontier, such
    as the fiber proof's thirty tables, hold O(len(points)) images at once.
    """
    step = max(1, 2 * len(points) // len(maps))
    new = []
    for i in range(0, len(idx), step):
        at = points[idx[i : i + step]]
        found = _locate(points, _sorted_distinct(np.concatenate([m(at) for m in maps])))
        new.append(found[~visited[found]])
        visited[new[-1]] = True
    return np.concatenate(new)


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


def orbits(p, k, D, gens="gamma") -> OrbitPartition:
    """Partition of the level-k point set under the chosen generator family.

    At k >= 2 a single orbit is first proved (``_lifts_transitive``): the
    orbit of one point of X_1 under the letters is all of X_1, and at each
    level j = 2..k rotation powers h^-1 r_c^n h fixing one point t of
    X_{j-1}, which generate a subgroup of its stabilizer, are transitive
    on the p^2 points of X_j over t, which makes X_j one orbit (the module
    docstring gives the argument).  Then the partition is the whole set,
    |X_1| p^{2(k-1)} points, and its representative, the least code, is
    enumerated only when it is read.  Otherwise (the action splits mod p,
    or a fiber stays split under all thirty elements) the level-k set is
    enumerated and partitioned by BFS, so the result is exact either way.

    The BFS runs the three Vieta involutions, and for "aut" joins
    their orbits by H, the group of order 24 that the double sign changes
    ex, ey, ez and the transpositions pxy, pyz, pzx generate.  Each h in H
    has h s_a h^-1 = s_pi(a) for a permutation pi of the Vieta letters,
    so h maps the Vieta orbit of t onto the Vieta orbit of h(t), and the
    Aut orbit of t is the union of the Vieta orbits of H t.  Once the
    Vieta orbit of t is expanded, the six letters act on t alone, and every
    unvisited image seeds a further Vieta orbit of the same Aut orbit;
    those seeds are expanded and mapped by H in turn.  Every image
    is still located in the point set: an H-image of a non-seed point lies
    in a Vieta orbit that is expanded, and so checked, in full.  The seeds
    are the least unvisited indices (``partition``).
    """
    M = _code_modulus(p, k)
    if k >= 2:
        base = enumerate_points(p, 1, D)
        if _lifts_transitive(base, p, k, residue_of(D, p, k), gens):
            total = len(base) * p ** (2 * (k - 1))

            def least():
                return [tuple(int(c) for c in _decode(enumerate_points(p, k, D)[0], M))]

            return OrbitPartition(p, k, gens, total, [total], least)
    points = enumerate_points(p, k, D)
    maps = _gen_maps(p, k, gens)
    sizes, seeds = partition(points, maps[:3], maps[3:])
    reps = list(zip(*(c.tolist() for c in _decode(points[seeds], M))))
    return OrbitPartition(p, k, gens, int(len(points)), sizes, reps)


def affine_table(b, e1, e2, p: int) -> np.ndarray:
    """The affine map of F_p^2 through three images, as a table on the codes u + p v.

    ``b``, ``e1`` and ``e2`` are the (u, v) images mod p of the frame
    points (0, 0), (1, 0) and (0, 1): the map is e -> b + A e, the columns
    of A being e1 - b and e2 - b.  Entry u + p v of the table is the code
    of the image of (u, v).
    """
    s = np.arange(p, dtype=np.int64)
    u2, v2 = (
        (b[i] + (e2[i] - b[i]) * s[:, None] + (e1[i] - b[i]) * s) % p for i in (0, 1)
    )
    return (u2 + p * v2).ravel()  # row v, column u


def _fiber_perms(t, p: int, j: int, d: int):
    """Each word's table on the codes u + p v of X_j over t, a point of X_{j-1} (an int triple).

    (u, v) are a point's free offsets from t mod p^(j-1) (``fiber_step``).
    ``affine_table`` fits an ``AutWord`` fixing t mod p^(j-1) from its
    images of the frame, the points at offsets (0, 0), (1, 0) and (0, 1),
    mod p^j (the module docstring gives the argument), each taken by
    ``apply_word`` on ``PadicInt`` at precision j.  An image that does not
    reduce to t mod p^(j-1) escaped the fiber and raises ``RuntimeError``,
    as ``_locate`` does.
    """
    q = p ** (j - 1)
    D = PadicInt(p, j, d)
    frame = [
        SurfacePoint(*(PadicInt(p, j, c) for c in fiber_step(t, u, v, p, j, d)), D)
        for u, v in ((0, 0), (1, 0), (0, 1))
    ]
    free = [i for i in range(3) if i != unit_partial(t, p)]

    def offsets(triple):
        if any((c - s) % q for c, s in zip(triple, t)):
            raise RuntimeError("generator image escaped the point set")
        return [triple[i] // q for i in free]

    def perm(word: AutWord) -> np.ndarray:
        return affine_table(*(offsets(apply_word(word, pt).residues()) for pt in frame), p)

    return perm


def _return_time(word: AutWord, t, p: int) -> int:
    """The least n >= 1 with word^n(t) = t mod p, for a point t mod p (an int triple)."""
    acts = [_residue_action(g, p) for g in reversed(word.letters)]  # rightmost first
    s, n = tuple(t), 0
    while True:
        for act in acts:
            s = act(*s)
        n += 1
        if s == tuple(t):
            return n


def _lifts_transitive(base: np.ndarray, p: int, k: int, d: int, gens: str) -> bool:
    """True when the family is proved transitive on the level-1 set ``base`` and up to level k.

    Level 1 is one orbit expansion from ``base``'s least point t under the
    family's maps, as in ``partition``, that must reach every point.  At
    level j the stabilizers w^n, w = h^-1 r_c h for the ``CONJUGATORS`` h
    and c = x, y, z, fix t mod p^(j-1) (the module docstring gives the
    argument) and are fitted by ``_fiber_perms`` on the p^2 points of X_j
    over t, which is then ``fiber_step``'s point at offsets (0, 0).  The
    three with h = () come first; while their tables leave the fiber
    split, those with h of length 1 and then 2 join them, each stage built
    when it is first needed.  An exponent n starts at the return time of
    t mod p under w and is kept from level to level, times p while w^n
    moves t mod p^(j-1).  A split at level 1, or at a level under all
    thirty tables, proves nothing, and this returns False.
    """
    if not len(base):
        return False
    # per mod-p point, the level-1 expansion (traced peaks 18 bytes a point
    # at p = 101 to 809); per fiber point, a level's thirty tables and their
    # BFS (peaks 277-298 bytes a point at p = 101 to 809 with every stage
    # run, up to 350 at p = 53); and 128 KiB for the words and points
    check_budget(8 * (3 * len(base) + 44 * p**2) + (1 << 17), "fiber proof")
    maps = _gen_maps(p, 1, gens)
    if _expand_orbit(base, maps[:3], 0, np.zeros(len(base), dtype=bool), maps[3:]) < len(base):
        return False
    t = t1 = [int(c) for c in _decode(base[0], p)]
    codes = np.arange(p * p, dtype=np.int64)
    exponents = {}  # (h, c) -> n, for the stages built so far
    for j in range(2, k + 1):
        fit, tables = _fiber_perms(t, p, j, d), []
        for size in range(3):
            for h, c in ((h, c) for h in CONJUGATORS if len(h) == size for c in "xyz"):
                n = exponents.get((h, c)) or _return_time(h.inverse() * rotation(c, 1) * h, t1, p)
                while True:
                    try:
                        tables.append(fit(h.inverse() * rotation(c, n) * h))
                        break
                    except RuntimeError:  # w^n moves t mod p^(j-1)
                        n *= p
                exponents[h, c] = n
            visited = np.zeros(p * p, dtype=bool)
            if _expand_orbit(codes, [tb.__getitem__ for tb in tables], 0, visited) == p * p:
                break
        else:
            return False
        t = fiber_step(t, 0, 0, p, j, d)
    return True


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


def check_transitivity(p, k, D, gens="aut") -> bool:
    """True iff the generator action has a single orbit at level k (``orbits``)."""
    return orbits(p, k, D, gens).transitive


def orbit_divisibility(p, k, D, part=None) -> tuple[OrbitPartition, bool]:
    """The gamma partition at level k, and whether p^k divides every orbit size.

    The divisibility theorem claims it for the Vieta orbits when p > 3,
    p = 3 mod 4 and D = 0 mod p^k.  Outside those hypotheses this raises
    ValueError before any orbit is computed.  ``part`` is the caller's
    partition of the same set, if it has one; otherwise it is computed.
    """
    if part is not None and (part.gens, part.p, part.level) != ("gamma", p, k):
        raise ValueError(
            f"divisibility theorem is about the Vieta (gamma) orbits at level {k} "
            f"mod {p}, not {part.gens} orbits at level {part.level} mod {part.p}"
        )
    if p % 4 != 3 or p <= 3:
        raise ValueError("divisibility theorem needs p > 3 with p = 3 mod 4")
    if residue_of(D, p, k) != 0:
        raise ValueError("divisibility theorem needs D = 0 mod p^k")
    if part is None:
        part = orbits(p, k, 0, gens="gamma")
    return part, all(s % p**k == 0 for s in part.orbit_sizes)


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
    results are reported as collapses rather than failures.  A p that is
    not an odd prime raises ValueError for every case, the D4 cage too.
    """
    if case not in _CATALOG_CASES:
        raise ValueError(f"unknown catalog case {case!r}")
    if K < 3:
        raise ValueError("precision >= 3 required")
    _check_odd_prime(p)
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
