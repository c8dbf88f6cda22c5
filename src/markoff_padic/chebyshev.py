"""Monic Chebyshev polynomials, companion-matrix powers, and their verifiers.

The two families T_N, U_N satisfy the recurrence f_N = x f_{N-1} - f_{N-2}
with initials (T_{-1}, T_0) = (x, 2) and (U_{-1}, U_0) = (0, 1); below
index -1 it runs backward, f_{N-2} = x f_{N-1} - f_N, so the symmetries
T_{-N} = T_N, U_{-N-2} = -U_N are checked (``identities``), not assumed.
The companion matrix C(x) = [[x, -1], [1, 0]] has
C(x)^N = [[U_N, -U_{N-1}], [U_{N-1}, -U_{N-2}]], so T_N(x) = trace C(x)^N.
Large powers are never expanded symbolically: one kernel, ``_mat_power``,
takes binary powers of a 2x2 matrix on plain residues mod p^K;
``companion_power`` wraps its four entries as PadicInt, and
``verify_companion_estimates`` stays on residues throughout, reading
C^{pN} as (C^N)^p.  Its PadicInt/Mat2 form is kept as the reference in
tests/test_chebyshev.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .padic import PadicInt, _check_odd_prime, poly_eval

DEGREE_CAP = 10_000

NEG_INF = float("-inf")


class DensePoly:
    """Polynomial with integer coefficients reduced modulo p^K."""

    __slots__ = ("prime", "precision", "coeffs")

    def __init__(self, prime: int, precision: int, coeffs):
        self.prime = prime
        self.precision = precision
        mod = prime**precision
        cs = [c % mod for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return (self.prime, self.precision, self.coeffs) == (
            other.prime,
            other.precision,
            other.coeffs,
        )

    def __repr__(self) -> str:
        return f"DensePoly(p={self.prime}, K={self.precision}, {list(self.coeffs)})"

    def _new(self, coeffs) -> "DensePoly":
        return DensePoly(self.prime, self.precision, coeffs)

    def __add__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        a, b = list(self.coeffs), other.coeffs
        a += [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            a[i] -= c
        return self._new(a)

    def __mul__(self, c: int) -> "DensePoly":
        """Multiply by an integer scalar."""
        return self._new([a * c for a in self.coeffs])

    def shift_x(self) -> "DensePoly":
        """Multiply by x."""
        return self._new((0,) + self.coeffs)

    def __call__(self, x: PadicInt) -> PadicInt:
        return poly_eval(self.coeffs, x)


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over PadicInt; companion powers have determinant 1."""

    a11: PadicInt
    a12: PadicInt
    a21: PadicInt
    a22: PadicInt

    @staticmethod
    def identity(p: int, k: int) -> "Mat2":
        one = PadicInt(p, k, 1)
        zero = PadicInt(p, k, 0)
        return Mat2(one, zero, zero, one)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
        )

    def scale(self, c: PadicInt | int) -> "Mat2":
        return Mat2(self.a11 * c, self.a12 * c, self.a21 * c, self.a22 * c)

    def det(self) -> PadicInt:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> PadicInt:
        return self.a11 + self.a22

    def apply(self, v: tuple[PadicInt, PadicInt]) -> tuple[PadicInt, PadicInt]:
        return (self.a11 * v[0] + self.a12 * v[1], self.a21 * v[0] + self.a22 * v[1])

    def inverse(self) -> "Mat2":
        d = self.det()
        if not d.is_unit():
            raise ValueError("matrix not invertible")
        w = d.invert()
        return Mat2(self.a22 * w, -self.a12 * w, -self.a21 * w, self.a11 * w)

    def entries(self) -> tuple[PadicInt, PadicInt, PadicInt, PadicInt]:
        return (self.a11, self.a12, self.a21, self.a22)

    def congruent_to(self, other: "Mat2", level: int | None = None) -> bool:
        return all(
            s.congruent_to(o, level)
            for s, o in zip(self.entries(), other.entries())
        )


def _cheb_family(n: int, p: int, k: int, f_m1, f_0) -> DensePoly:
    """f_n from (f_{-1}, f_0) by f_N = x f_{N-1} - f_{N-2}, run backward below -1.

    Backward, f_{N-2} = x f_{N-1} - f_N is the same recurrence on the
    sequence read from f_{-1} down, with f_0 before it.  A degree above
    DEGREE_CAP, a p that is not an odd prime, or k < 1 is refused.
    """
    _check_odd_prime(p)
    if k < 1:
        raise ValueError(f"precision must be >= 1, got {k}")
    before, start, steps = (f_m1, f_0, n) if n >= 0 else (f_0, f_m1, -1 - n)
    if len(start) - 1 + steps > DEGREE_CAP:
        raise ValueError(f"degree cap {DEGREE_CAP} exceeded")
    prev, cur = DensePoly(p, k, before), DensePoly(p, k, start)
    for _ in range(steps):
        prev, cur = cur, cur.shift_x() - prev
    return cur


def chebyshev_T(n: int, p: int, k: int) -> DensePoly:
    """T_n modulo p^k, for any integer n."""
    return _cheb_family(n, p, k, [0, 1], [2])


def chebyshev_U(n: int, p: int, k: int) -> DensePoly:
    """U_n modulo p^k, for any integer n."""
    return _cheb_family(n, p, k, [], [1])


def companion(x: PadicInt) -> Mat2:
    """The companion matrix [[x, -1], [1, 0]]."""
    p, k = x.prime, x.precision
    return Mat2(x, PadicInt(p, k, -1), PadicInt(p, k, 1), PadicInt(p, k, 0))


def _mat_power(entries, n: int, M: int):
    """The 2x2 matrix ``entries`` = (a11, a12, a21, a22) to the power n >= 0, mod M."""

    def mul(A, B):
        a, b, c, d = A
        e, f, g, h = B
        return ((a * e + b * g) % M, (a * f + b * h) % M,
                (c * e + d * g) % M, (c * f + d * h) % M)

    out, base = (1, 0, 0, 1), entries
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


def companion_power(x: PadicInt, n: int) -> Mat2:
    """C(x)^n at the precision of x, by binary powers on the residues mod p^K.

    Negative n is refused.
    """
    if n < 0:
        raise ValueError("negative matrix powers not supported")
    M = x.modulus
    out = _mat_power((x.residue, M - 1, 1, 0), n, M)
    return Mat2(*(PadicInt(x.prime, x.precision, e) for e in out))


def chebyshev_T_at(x: PadicInt, n: int) -> PadicInt:
    """T_n(x) = trace C(x)^n, without building the polynomial."""
    return companion_power(x, abs(n)).trace()


def chebyshev_U_at(x: PadicInt, n: int) -> PadicInt:
    """U_n(x) from the top-left entry of C(x)^n."""
    if n >= 0:
        return companion_power(x, n).a11
    if n == -1:
        return PadicInt(x.prime, x.precision, 0)
    return -chebyshev_U_at(x, -n - 2)


def fixed_point_Tp(x0: PadicInt) -> PadicInt:
    """The unique fixed point of T_p in the residue disk of x0.

    T_p is a p^{-1}-contraction on every mod-p disk, so exactly K-1
    iterations of x <- T_p(x) pin the fixed point to full precision.
    """
    x = x0
    for _ in range(x0.precision - 1):
        x = chebyshev_T_at(x, x0.prime)
    return x


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rotation_order(x1: PadicInt) -> int:
    """Order of x1 as a trace of rational rotation (x1 a T_p fixed point).

    Returns the least divisor r of (p^2-1)/2 with C(x1)^r = I at working
    precision; the borderline residues +-2 are unipotent and rejected.
    """
    p, k = x1.prime, x1.precision
    if x1.residue % p in (2, p - 2):
        raise ValueError("unipotent case")
    ident = Mat2.identity(p, k)
    for r in _divisors((p * p - 1) // 2):
        if companion_power(x1, r).congruent_to(ident):
            return r
    raise ValueError("no rotation order found; x1 is not a T_p fixed point")


def verify_power_sum_identity(p: int, k: int) -> dict:
    """Check x^p = sum_j binom(p, j) T_{p-2j} and T_p = x^p mod p, on coefficients."""
    x_to_p = DensePoly(p, k, [0] * p + [1])
    total = DensePoly(p, k, [])
    for j in range((p - 1) // 2 + 1):
        total = total + chebyshev_T(p - 2 * j, p, k) * math.comb(p, j)
    collect_ok = total == x_to_p
    tp_mod_p = chebyshev_T(p, p, 1)
    frobenius_ok = tp_mod_p == DensePoly(p, 1, [0] * p + [1])
    first_discrepancy = None
    if not collect_ok:
        a, b = total.coeffs, x_to_p.coeffs
        for i in range(max(len(a), len(b))):
            ca = a[i] if i < len(a) else 0
            cb = b[i] if i < len(b) else 0
            if ca != cb:
                first_discrepancy = {"degree": i, "lhs": cb, "rhs": ca}
                break
    return {
        "p": p,
        "k": k,
        "binomial_collection": collect_ok,
        "frobenius_mod_p": frobenius_ok,
        "passed": collect_ok and frobenius_ok,
        "first_discrepancy": first_discrepancy,
    }


def verify_companion_estimates(x0: PadicInt, sample_us) -> dict:
    """Check the four near-identity congruences for high companion powers.

    For x0 not congruent to +-2 mod p, with N = (p^2-1)/2 and x1 the T_p fixed
    point near x0:
      C(x0+pu)^N     = I + (N/(x0^2-4)) [[x0,-2],[2,-x0]] (x0-x1+pu)   mod p^2
      C(x0+pu)^{pN}  = I + (pN/(x0^2-4)) [[x0,-2],[2,-x0]] (x0-x1+pu)  mod p^3
    For x0 congruent to +-2 mod p:
      C(x0+pu)^{2p}   = I + p   [[2,-x0],[x0,-2]]                      mod p^2
      C(x0+pu)^{2p^2} = I + p^2 [[2,-x0],[x0,-2]]                      mod p^3
    Both read C(x0+pu)^n = I + S d mod p^2 and C(x0+pu)^{pn} = I + S dp mod p^3,
    so the class picks the power n, the slope S and the drift d, and one loop
    checks them.  Every sampled u (an int, or a PadicInt over p with at least
    two digits) is tested; the report carries per-sample verdicts.
    The estimates need p > 3: the expansion of C(x0+pu)^{2p} carries
    comb(2p+2, 3)*pu, whose /6 loses the factor 3 at p = 3.

    The check runs on plain residues mod M = p^K: S and d are residues, the
    power is ``_mat_power`` of C(x0+pu), and C^{pn} is read as (C^n)^p,
    which holds exactly mod M.  The PadicInt/Mat2 form of the same check is
    the reference in tests/test_chebyshev.py.
    """
    p, k = x0.prime, x0.precision
    if p <= 3:
        raise ValueError("companion estimates require p > 3")
    if k < 3:
        raise ValueError("precision >= 3 required")
    M, x = x0.modulus, x0.residue
    parabolic = x % p in (2, p - 2)
    if parabolic:
        n, slope = 2 * p, (2, -x, x, -2)
    else:
        n = (p * p - 1) // 2
        w = n * pow(x * x - 4, -1, M)
        slope = (w * x, -2 * w, 2 * w, -w * x)
        offset = (x0 - fixed_point_Tp(x0)).residue
    ident = (1, 0, 0, 1)
    samples = []
    for u in sample_us:
        if isinstance(u, PadicInt):
            if u.prime != p:
                raise ValueError("prime mismatch")
            if u.precision < 2:  # p*u then has two digits, short of mod p^3
                raise ValueError(
                    f"level 3 exceeds available precision {u.precision + 1}"
                )
            r = u.residue
        elif isinstance(u, int):
            r = u % M
        else:
            raise TypeError(f"sample u = {u!r} is neither an int nor a PadicInt")
        drift = p if parabolic else offset + p * r
        A = _mat_power(((x + p * r) % M, M - 1, 1, 0), n, M)
        B = _mat_power(A, p, M)
        ok1 = all((a - e - s * drift) % p**2 == 0 for a, e, s in zip(A, ident, slope))
        ok2 = all((b - e - s * drift * p) % p**3 == 0 for b, e, s in zip(B, ident, slope))
        samples.append({"u": r, "mod_p2": ok1, "mod_p3": ok2})
    passed = all(s["mod_p2"] and s["mod_p3"] for s in samples)
    return {
        "p": p,
        "x0": x,
        "class": "parabolic" if parabolic else "generic",
        "samples": samples,
        "passed": passed,
    }
