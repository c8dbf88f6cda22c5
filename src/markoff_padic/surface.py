"""Points of the nonsingular Markoff surface over Z/p^K, and its automorphisms.

The surface is P(x, y, z) = x^2 + y^2 + z^2 - xyz = D with the singular
locus removed: at least one of 2x-yz, 2y-xz, 2z-xy must be a unit mod p.
Automorphisms are generated by the three Vieta involutions, the three
double sign changes, and the three coordinate transpositions; a word
[g1, g2, ..., gn] acts as the composition g1 o g2 o ... o gn (the rightmost
letter is applied first), so the word ("sy", "sz") is the map s_y s_z that
multiplies (y, z) by C(x)^2.

``GENERATORS`` is the one definition of the action: each letter's ring
formula on (x, y, z), with no modulus.  It runs on ``PadicInt`` coordinates
here and on residues mod p^k in ``census``, which reduces only the
coordinates a letter rewrites.  ``gradient``, ``unit_partial`` (the first
coordinate whose partial is a unit mod p), ``fiber_step`` (X_j over a point
t of X_{j-1}: P(t + p^(j-1) h) = P(t) + p^(j-1) grad P(t) . h mod p^j) and
``solve_fiber`` (that step at given free coordinates, under ``lift_point``
and the charts) are likewise the one definition of the smooth fiber.

An ``AutWord`` is stored as runs: maximal alternating blocks of two Vieta
letters, such as the stabilizer (s_a s_b)^m of ``rotation``, and single
letters between them.  Reduction, products, inverses and powers work on runs,
so a word of millions of letters is a few tuples; ``letters`` writes them out
on demand.  ``apply_word`` evaluates each run of n letters as one companion
power C(c)^n of the coordinate c it fixes (``chebyshev.companion_power``),
in O(log n) ring operations.  ``apply_letters``, one generator at a time,
is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

import numpy as np

from .chebyshev import companion_power
from .padic import PadicInt, residue_of

GENERATORS = {
    "sx": lambda x, y, z: (y * z - x, y, z),
    "sy": lambda x, y, z: (x, x * z - y, z),
    "sz": lambda x, y, z: (x, y, x * y - z),
    "ex": lambda x, y, z: (x, -y, -z),
    "ey": lambda x, y, z: (-x, y, -z),
    "ez": lambda x, y, z: (-x, -y, z),
    "pxy": lambda x, y, z: (y, x, z),
    "pyz": lambda x, y, z: (x, z, y),
    "pzx": lambda x, y, z: (z, y, x),
}
VIETA_LETTERS = ("sx", "sy", "sz")
ALL_LETTERS = tuple(GENERATORS)  # in table order, the reports' generator_alphabet


def generator_formula(letter: str):
    """The ring formula of one letter, (x, y, z) -> image triple."""
    try:
        return GENERATORS[letter]
    except KeyError:
        raise ValueError(f"unknown generator letter {letter!r}") from None


def gradient(x, y, z):
    """(dP/dx, dP/dy, dP/dz) = (2x-yz, 2y-xz, 2z-xy): PadicInt, ints or numpy arrays."""
    return (x + x - y * z, y + y - x * z, z + z - x * y)


def unit_partial(triple, p: int) -> int:
    """Index of the first partial of P that is a unit mod p at an integer triple."""
    for i, d in enumerate(gradient(*(int(c) for c in triple))):
        if d % p:
            return i
    raise ValueError("point is singular mod p")


def fiber_step(t, u, v, p: int, j: int, d: int):
    """The points of X_j at free offsets (u, v) over t, a point of X_{j-1}, as residues mod p^j.

    t is an int triple, or a triple of numpy arrays of points over one
    mod-p point, of residues below p^(j-1); (u, v) broadcast against it.
    The solved coordinate s gains the digit (D - P) / p^(j-1) / dP/ds mod p.
    Factors stay below p^j, so products stay below p^(2j) < 2^42.
    """
    base = [int(np.ravel(c)[0]) for c in t]  # the mod-p point under all of t
    s = unit_partial(base, p)
    return _step(t, u, v, p, j, d, s, pow(gradient(*base)[s], -1, p))


def _step(t, u, v, p: int, j: int, d: int, s: int, inverse: int):
    """``fiber_step`` with the solved coordinate s and 1 / (dP/ds) mod p given."""
    M, q = p**j, p ** (j - 1)
    a, b = (t[i] + q * e for i, e in zip((i for i in range(3) if i != s), (u, v)))
    c = t[s]
    digit = (d - a * a - b * b - c * (c - a * b % M)) % M // q
    coords = [a, b]
    coords.insert(s, c + q * (digit * inverse % p))
    return coords


def solve_fiber(triple, p: int, k: int, d: int) -> list[int]:
    """The point of X_k over ``triple`` mod p with its free coordinates, as residues mod p^k.

    ``fiber_step`` at j = 2..k takes the free integers' (j-1)-th digits; unique by Hensel.
    """
    s = unit_partial(triple, p)
    inverse = pow(gradient(*map(int, triple))[s], -1, p)
    free = [int(c) for i, c in enumerate(triple) if i != s]
    t = [int(c) % p for c in triple]
    for j in range(2, k + 1):
        t = _step(t, *(c // p ** (j - 1) % p for c in free), p, j, d, s, inverse)
    return t


@dataclass(frozen=True)
class SurfacePoint:
    """A triple on the surface, with the parameter D it satisfies."""

    x: PadicInt
    y: PadicInt
    z: PadicInt
    D: PadicInt

    @property
    def prime(self) -> int:
        return self.x.prime

    @property
    def precision(self) -> int:
        return min(c.precision for c in (self.x, self.y, self.z, self.D))

    def coords(self) -> tuple[PadicInt, PadicInt, PadicInt]:
        return (self.x, self.y, self.z)

    def partials(self) -> tuple[PadicInt, PadicInt, PadicInt]:
        """(dP/dx, dP/dy, dP/dz) = (2x-yz, 2y-xz, 2z-xy) at the point."""
        return gradient(self.x, self.y, self.z)

    def validate(self) -> "SurfacePoint":
        """Raise unless the equation and nonsingularity invariants hold."""
        if not eval_P(self.x, self.y, self.z).congruent_to(self.D):
            raise ValueError("point does not satisfy the surface equation")
        if not any(d.is_unit() for d in self.partials()):
            raise ValueError("point is singular mod p")
        return self

    def residues(self, level: int | None = None) -> tuple[int, int, int]:
        """Coordinatewise residues mod p^level, at most the precision (D's included)."""
        k = level if level is not None else self.precision
        if k > self.precision:
            raise ValueError(f"level {k} exceeds precision {self.precision}")
        return tuple(c.residue_mod(k) for c in (self.x, self.y, self.z))


def eval_P(x: PadicInt, y: PadicInt, z: PadicInt) -> PadicInt:
    """x^2 + y^2 + z^2 - xyz at the shared precision."""
    return x * x + y * y + z * z - x * y * z


def point(x: int, y: int, z: int, D: int, p: int, k: int) -> SurfacePoint:
    """Build and validate a point from integer residues."""
    mk = lambda v: v if isinstance(v, PadicInt) else PadicInt(p, k, v)
    return SurfacePoint(mk(x), mk(y), mk(z), mk(D)).validate()


def is_point(triple, D) -> bool:
    """True iff the triple satisfies both surface invariants."""
    x, y, z = triple
    if not eval_P(x, y, z).congruent_to(D):
        return False
    return any(d.is_unit() for d in gradient(x, y, z))


def apply_generator(letter: str, pt: SurfacePoint) -> SurfacePoint:
    """Image of pt under one generator; the equation value is preserved."""
    return SurfacePoint(*generator_formula(letter)(pt.x, pt.y, pt.z), pt.D)


def _run_letters(run) -> tuple[str, ...]:
    pair, n = run
    return (pair * ((n + 1) // 2))[:n]


def _drop_front(run, k: int):
    """The run without its first k letters (k < length)."""
    pair, n = run
    if n - k == 1:
        return (pair[k % len(pair)],), 1
    return (pair[k % 2], pair[(k + 1) % 2]), n - k


def _reversed_run(run):
    pair, n = run
    return (pair[(n - 1) % len(pair)], pair[n % len(pair)])[: len(pair)], n


def _push(runs: list, run) -> None:
    """Append one run to canonical reduced runs, cancelling and merging at the join."""
    while runs:
        (pair, n), (top, top_n) = run, runs[-1]
        last = top[(top_n - 1) % len(top)]
        g = pair[0]
        if g == last:
            # top read backwards and the run read forwards agree letter by letter
            k = min(n, top_n) if len(pair) == 2 and set(top) == set(pair) else 1
            if top_n == k:
                runs.pop()
            else:
                runs[-1] = (top[0],) if top_n - k == 1 else top, top_n - k
        elif g in VIETA_LETTERS and (
            g == top[top_n % 2] if top_n > 1 else top[0] in VIETA_LETTERS
        ):
            # g continues the top block's alternation, or pairs with a lone
            # Vieta top; the rest of the run follows when it alternates with last
            k = n if n == 1 or pair[1] == last else 1
            runs[-1] = (top if top_n > 1 else (last, g)), top_n + k
        else:
            break
        if k == n:
            return
        run = _drop_front(run, k)
    runs.append(run)


def free_reduce(runs) -> tuple:
    """Canonical runs of a sequence of runs: adjacent equal letters cancel
    (every generator is an involution) and alternating Vieta letters merge.

    A run (pair, n) is n letters pair[0], pair[1], pair[0], ...: either a
    single letter ((g,), 1) or, for n >= 2, a maximal alternating block of two
    Vieta letters, taken greedily from the left.
    """
    out: list = []
    for run in runs:
        _push(out, run)
    return tuple(out)


@dataclass(frozen=True)
class AutWord:
    """A freely reduced word in the automorphism generators, stored as runs."""

    runs: tuple

    def __init__(self, letters=()):
        letters = tuple(letters)
        for g in letters:
            generator_formula(g)
        object.__setattr__(self, "runs", free_reduce(((g,), 1) for g in letters))

    @staticmethod
    def _of_runs(runs) -> "AutWord":
        word = object.__new__(AutWord)
        object.__setattr__(word, "runs", free_reduce(runs))
        return word

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(g for run in self.runs for g in _run_letters(run))

    @property
    def gamma_only(self) -> bool:
        return all(g in VIETA_LETTERS for pair, _ in self.runs for g in pair)

    def __len__(self) -> int:
        return sum(n for _, n in self.runs)

    def __mul__(self, other: "AutWord") -> "AutWord":
        return AutWord._of_runs(self.runs + other.runs)

    def inverse(self) -> "AutWord":
        return AutWord._of_runs(_reversed_run(r) for r in reversed(self.runs))

    def power(self, n: int) -> "AutWord":
        if n < 0:
            return self.inverse().power(-n)
        out, base = AutWord(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __str__(self) -> str:
        return " ".join(self.letters)

    @staticmethod
    def parse(text: str) -> "AutWord":
        return AutWord(tuple(text.split()))


_ROTATION_PAIRS = {"x": ("sy", "sz"), "y": ("sz", "sx"), "z": ("sx", "sy")}


def rotation(c: str, m: int) -> AutWord:
    """The Vieta word (s_a s_b)^m fixing coordinate c; it acts on (a, b) as C(c)^{2m}."""
    return AutWord(_ROTATION_PAIRS[c]).power(m)


# the ten Vieta words of length <= 2, shortest first: the conjugators h of
# the rotation stabilizers h^-1 r_c^n h that certify and census take
CONJUGATORS = (
    AutWord(),
    *(AutWord((g,)) for g in VIETA_LETTERS),
    *(AutWord((g, h)) for g in VIETA_LETTERS for h in VIETA_LETTERS if g != h),
)


def apply_word(word: AutWord, pt: SurfacePoint, gamma_only: bool = False) -> SurfacePoint:
    """Apply a word to a point, rightmost run first, each run as one companion power.

    A Vieta run a b a ... of n >= 2 letters (leftmost a) fixes the third
    coordinate c and sets the coordinates (a, b) to C(c)^n applied to (a, b)
    when n is even and to (b, a) when n is odd.
    """
    if gamma_only and not word.gamma_only:
        raise ValueError("word is not in the Vieta subgroup")
    for pair, n in reversed(word.runs):
        if n == 1:
            pt = apply_generator(pair[0], pt)
            continue
        i, j = ("xyz".index(g[1]) for g in pair)
        coords = list(pt.coords())
        source = (coords[i], coords[j]) if n % 2 == 0 else (coords[j], coords[i])
        coords[i], coords[j] = companion_power(coords[3 - i - j], n).apply(source)
        pt = SurfacePoint(*coords, pt.D)
    return pt


def apply_letters(word: AutWord, pt: SurfacePoint) -> SurfacePoint:
    """Reference for ``apply_word``: one generator at a time, rightmost letter first."""
    for g in reversed(word.letters):
        pt = apply_generator(g, pt)
    return pt


@total_ordering
@dataclass(frozen=True)
class DistClass:
    """The l-infinity distance class p^{-exponent}, discrete at precision.

    exponent == precision means the points are indistinguishable at the
    working precision (distance <= p^{-K}); classes compare by actual
    distance, so a smaller exponent is a larger distance.
    """

    exponent: int
    precision: int

    def __str__(self) -> str:
        if self.exponent >= self.precision:
            return f"<=p^-{self.precision}"
        if self.exponent == 0:
            return "1"
        return f"p^-{self.exponent}"

    @property
    def indistinguishable(self) -> bool:
        return self.exponent >= self.precision

    def __lt__(self, other: "DistClass") -> bool:
        return self.exponent > other.exponent


def dist(a: SurfacePoint, b: SurfacePoint) -> DistClass:
    """max of coordinatewise p-adic absolute differences, as a class."""
    if a.prime != b.prime:
        raise ValueError("prime mismatch")
    if not a.D.congruent_to(b.D):
        raise ValueError("points lie on different surfaces")
    v = min(
        (ca - cb).valuation() for ca, cb in zip(a.coords(), b.coords())
    )
    k = min(a.precision, b.precision)
    return DistClass(min(v, k), k)


def lift_point(triple, D, p: int, k: int) -> SurfacePoint:
    """Hensel-lift a mod-p point to an exact point at precision k: ``solve_fiber``, validated.

    D is read mod p^k (``residue_of``).
    """
    d = residue_of(D, p, k)
    return point(*solve_fiber(triple, p, k, d), d, p, k)
