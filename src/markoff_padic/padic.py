"""Exact arithmetic in Z_p truncated to a finite precision.

A value is a residue modulo p^K together with the prime p and the number of
known digits K.  Operations propagate the minimum precision of their
operands, and dividing by p^m honestly discards m digits.  Only odd primes
are supported; general Q_p (negative valuations) is out of scope.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def _check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"prime must be an odd prime >= 3, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"prime must be an odd prime >= 3, got {p}")
        d += 2
    return p


class PadicInt:
    """A p-adic integer known modulo p^precision."""

    __slots__ = ("prime", "precision", "residue", "modulus")

    def __init__(self, prime: int, precision: int, residue: int):
        _check_odd_prime(prime)
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        self.prime = prime
        self.precision = precision
        self.modulus = prime**precision
        self.residue = residue % self.modulus

    # -- basic protocol -------------------------------------------------

    def __repr__(self) -> str:
        return f"PadicInt({self.prime}, {self.precision}, {self.residue})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (
            self.prime == other.prime
            and self.precision == other.precision
            and self.residue == other.residue
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.precision, self.residue))

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise ValueError("prime mismatch")
            return other
        if isinstance(other, int):
            return PadicInt(self.prime, self.precision, other)
        return NotImplemented

    def _operand(self, other) -> "PadicInt":
        """``other`` as a PadicInt over this prime, or a TypeError that names it.

        The operators return ``NotImplemented`` (``_coerce``) so Python can
        try the other operand; the methods that take a value call this.
        """
        value = self._coerce(other)
        if value is NotImplemented:
            raise TypeError(f"{other!r} is neither an int nor a PadicInt")
        return value

    # -- ring structure (min-precision rule) -----------------------------

    def __add__(self, other) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.precision, other.precision)
        return PadicInt(self.prime, k, self.residue + other.residue)

    __radd__ = __add__

    def __sub__(self, other) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.precision, other.precision)
        return PadicInt(self.prime, k, self.residue - other.residue)

    def __rsub__(self, other) -> "PadicInt":
        return -(self - other)

    def __mul__(self, other) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.precision, other.precision)
        return PadicInt(self.prime, k, self.residue * other.residue)

    __rmul__ = __mul__

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.prime, self.precision, -self.residue)

    def __pow__(self, n: int) -> "PadicInt":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return PadicInt(
            self.prime, self.precision, pow(self.residue, n, self.modulus)
        )

    # -- valuation and units ---------------------------------------------

    def valuation(self) -> int:
        """Largest v <= precision with p^v | residue.

        A return value equal to ``precision`` means the value is
        indistinguishable from 0 at this precision (true valuation >= K);
        see :func:`valuation_str` for the display form.
        """
        if self.residue == 0:
            return self.precision
        v = 0
        r = self.residue
        while r % self.prime == 0:
            r //= self.prime
            v += 1
        return v

    @property
    def is_zero(self) -> bool:
        return self.residue == 0

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def invert(self) -> "PadicInt":
        """Multiplicative inverse modulo p^K; input must be a unit."""
        if not self.is_unit():
            raise ValueError("not invertible")
        return PadicInt(
            self.prime, self.precision, pow(self.residue, -1, self.modulus)
        )

    def div_p_power(self, m: int) -> "PadicInt":
        """Divide by p^m, losing m digits of precision."""
        if m < 1 or m >= self.precision:
            raise ValueError(f"p-power exponent must satisfy 1 <= m < K, got {m}")
        if self.residue % self.prime**m != 0:
            raise ValueError("not divisible")
        return PadicInt(self.prime, self.precision - m, self.residue // self.prime**m)

    def mul_p_power(self, m: int) -> "PadicInt":
        """Multiply by p^m, gaining m digits of precision (exact operation)."""
        if m < 0:
            raise ValueError("exponent must be nonnegative")
        return PadicInt(self.prime, self.precision + m, self.residue * self.prime**m)

    # -- precision management ---------------------------------------------

    def truncate(self, k: int) -> "PadicInt":
        """Forget digits beyond the k-th."""
        if not 1 <= k <= self.precision:
            raise ValueError(f"cannot truncate precision {self.precision} to {k}")
        if k == self.precision:
            return self
        return PadicInt(self.prime, k, self.residue)

    def residue_mod(self, k: int) -> int:
        """Residue modulo p^k for k <= precision."""
        if not 1 <= k <= self.precision:
            raise ValueError(f"level {k} exceeds precision {self.precision}")
        return self.residue % self.prime**k

    def congruent_to(self, other, level: int | None = None) -> bool:
        """True if the two values agree modulo p^level (default: min precision)."""
        other = self._operand(other)
        k = min(self.precision, other.precision)
        if level is not None:
            if level > k:
                raise ValueError(f"level {level} exceeds available precision {k}")
            k = level
        return self.residue_mod(k) == other.residue_mod(k)


def residue_of(value, p: int, k: int) -> int:
    """``value`` mod p^k: an int, or a PadicInt over p known to at least k digits."""
    if isinstance(value, PadicInt):
        if value.prime != p:
            raise ValueError("prime mismatch")
        return value.residue_mod(k)
    return value % p**k


def valuation_str(a: PadicInt) -> str:
    """Valuation as text, with the zero-at-precision marker ``>=K``."""
    v = a.valuation()
    return f">={v}" if a.is_zero else str(v)


def legendre(a: PadicInt) -> int:
    """Legendre symbol of the mod-p reduction: +1, -1, or 0 on non-units."""
    r = a.residue % a.prime
    if r == 0:
        return 0
    e = pow(r, (a.prime - 1) // 2, a.prime)
    return 1 if e == 1 else -1


def _sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a modulo an odd prime p (a a unit QR)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return r


def sqrt(a: PadicInt) -> PadicInt:
    """Square root of a unit quadratic residue, on the canonical branch.

    The canonical branch is the root whose mod-p reduction lies in
    [1, (p-1)/2]; the other root is its negative.
    """
    if legendre(a) != 1:
        raise ValueError("no square root")
    p = a.prime
    r0 = PadicInt(p, a.precision, _sqrt_mod_p(a.residue % p, p))
    r = newton_solve([-a, 0, 1], r0)
    return -r if r.residue % p > (p - 1) // 2 else r


def poly_eval(coeffs, x: PadicInt) -> PadicInt:
    """Evaluate a polynomial given by its coefficient list (degree order)."""
    acc = PadicInt(x.prime, x.precision, 0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def newton_solve(coeffs, x0: PadicInt) -> PadicInt:
    """Unique root of F congruent to x0 mod p, by Newton iteration.

    ``coeffs`` lists the coefficients of a univariate polynomial F over
    PadicInt (or plain integers) in degree order.  Requires F(x0) = 0 mod p
    and F'(x0) a unit mod p; the iteration then converges quadratically to
    the Hensel lift at the precision of x0: the root is right mod p^(2^i)
    after i steps, so (K - 1).bit_length() steps reach K.  F(x0) and F'(x0),
    evaluated for the hypothesis checks, drive the first step.
    """
    coeffs = [x0._operand(c) for c in coeffs]
    deriv = [c * i for i, c in enumerate(coeffs)][1:]
    fx = poly_eval(coeffs, x0)
    dfx = poly_eval(deriv, x0)
    if not dfx.is_unit():
        raise ValueError("singular")
    if fx.residue % x0.prime != 0:
        raise ValueError("x0 is not an approximate root")
    x = x0
    for step in range((x0.precision - 1).bit_length()):
        if step:
            fx, dfx = poly_eval(coeffs, x), poly_eval(deriv, x)
        x = x - fx * dfx.invert()
    return x
