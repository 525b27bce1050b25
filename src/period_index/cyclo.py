"""Exact arithmetic in prime-power cyclotomic fields L = Q(zeta_n).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(n)-1) as
integer coordinates over one common positive denominator, so every
operation here is exact; inverses go through the norm.  At degree at most
2 (n = 2, 3, 4, the levels of every certificate) a product is written out
in closed form; the convolution folded by _reduce serves n = 5, 8, 9.  The
conjugate sigma_t(x), zeta -> zeta^t, is galois_apply(x, t).  Scope: n is
a prime power in SUPPORTED_LEVELS.  The arithmetic works at every one of
them.  At n in NORM_LEVELS = {2, 3, 4}, of degree at most 2, norm_shell
lists the elements x ≡ 1 mod m of Z[zeta_n] whose norm lies in a range,
read off the norm form; the sieve finds its prime generators among them.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence


SUPPORTED_LEVELS = (2, 3, 4, 5, 8, 9)
# the levels at which norm_shell lists elements, and the sieve pins a generator
NORM_LEVELS = (2, 3, 4)


class ContextError(ValueError):
    """Raised for unsupported n or mixed-context arithmetic."""


def _prime_power_split(n: int) -> tuple[int, int]:
    """Return (p, k) with n = p**k, or raise."""
    if n < 2:
        raise ContextError("level must be >= 2, got %r" % (n,))
    p = min(q for q in range(2, n + 1) if n % q == 0)
    m, k = n, 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ContextError("level %d is not a prime power" % n)
    return p, k


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending (index i is the x^i coefficient).

    Only prime powers are accepted: Phi_{p^k}(x) = Phi_p(x^(p^(k-1))).
    """
    p, k = _prime_power_split(n)
    step = n // p  # p^(k-1)
    coeffs = [0] * (step * (p - 1) + 1)
    for i in range(p):
        coeffs[i * step] = 1
    return coeffs


@lru_cache(maxsize=None)
def context(n: int) -> "GlobalContext":
    if n not in SUPPORTED_LEVELS:
        raise ContextError(
            "level %d outside supported prime-power scope %r" % (n, SUPPORTED_LEVELS)
        )
    return GlobalContext(n)


class GlobalContext:
    """Everything pinned once per level n: Phi_n, basis degree, reduction table.

    zeta is pinned as the power-basis generator; all Galois and residue
    computations downstream refer to this single choice.
    """

    def __init__(self, n: int):
        self.n = n
        self.prime, self.prime_exp = _prime_power_split(n)
        self.phi_coeffs = cyclotomic_poly(n)
        self.degree = len(self.phi_coeffs) - 1
        # x^d = -(lower part of Phi), used to fold products back below degree d.
        fold = [-c for c in self.phi_coeffs[:-1]]
        # x^(d+i) mod Phi_n as integer coordinate rows (Phi_n is monic), far
        # enough for both products (degree <= 2d-2) and raw zeta-power data
        # (degree <= n-1).
        rows = [fold]
        for _ in range(2 * n - 2 - self.degree):
            prev = rows[-1]
            top = prev[-1]
            rows.append([a + top * b for a, b in zip([0] + prev[:-1], fold)])
        self._power_rows = rows
        self.units = tuple(t for t in range(1, n) if gcd(t, n) == 1)

    def __repr__(self) -> str:
        return "GlobalContext(n=%d)" % self.n


class Record:
    """An immutable record: a subclass names its fields in __slots__, and
    Record.__init__ sets them from its arguments, in that order.
    Assigning to a field afterwards raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class CycloElem(Record):
    """An element of Q(zeta_n) on the power basis: integer numerators over
    one positive denominator, in lowest terms (gcd(num..., den) = 1), so
    equal elements have equal fields."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Iterable):
        ctx = context(n)
        num, den = list(coeffs), 1
        if not all(type(c) is int for c in num):
            cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in num]
            den = lcm(*(c.denominator for c in cs))
            num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > ctx.degree:
            # fold high powers down; lets callers pass raw polynomial data
            num = _reduce(ctx, num)
        num += [0] * (ctx.degree - len(num))
        _set(self, n, num, den)

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # --- constructors -------------------------------------------------
    @staticmethod
    def rational(n: int, value) -> "CycloElem":
        value = value if isinstance(value, int) else Fraction(value)
        num = [0] * context(n).degree
        num[0] = value.numerator
        return _elem(n, num, value.denominator)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycloElem":
        return CycloElem(n, [0] * (power % n) + [1])

    # --- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integral(self) -> bool:
        return self.den == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational: %r" % (self,))
        return Fraction(self.num[0], self.den)

    # --- ring ops -----------------------------------------------------
    def _check(self, other: "CycloElem") -> None:
        if not isinstance(other, CycloElem) or other.n != self.n:
            raise ContextError("mixed cyclotomic contexts: %r vs %r" % (self, other))

    def _plus(self, other, sign: int) -> "CycloElem":
        """self + sign * other."""
        if not isinstance(other, CycloElem) and isinstance(other, (int, Fraction)):
            other = CycloElem.rational(self.n, other)
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _elem(self.n, [a + sign * b for a, b in zip(self.num, other.num)], d1)
        s1 = d1 * sign
        return _elem(self.n, [a * d2 + b * s1 for a, b in zip(self.num, other.num)], d1 * d2)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _elem(self.n, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if not isinstance(other, CycloElem) and isinstance(other, (int, Fraction)):
            return _elem(self.n, [a * other.numerator for a in self.num], self.den * other.denominator)
        self._check(other)
        den = self.den * other.den
        d = len(self.num)
        if d == 2:  # (a0 + a1 z)(b0 + b1 z), with z^2 = f0 + f1 z
            (a0, a1), (b0, b1) = self.num, other.num
            f0, f1 = context(self.n)._power_rows[0]
            top = a1 * b1
            return _elem(self.n, [a0 * b0 + top * f0, a0 * b1 + a1 * b0 + top * f1], den)
        if d == 1:
            return _elem(self.n, [self.num[0] * other.num[0]], den)
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num, i):
                    raw[j] += a * b
        return _elem(self.n, _reduce(context(self.n), raw), den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def invert(self) -> "CycloElem":
        """Multiplicative inverse through the norm: with y the product of
        the conjugates sigma_t(x), t != 1, x * y = N(x) is rational and
        x^-1 = y / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.n)
        y, nrm = _norm_parts(self)
        if not nrm.is_rational():
            raise ArithmeticError("norm of %r did not land in Q" % (self,))
        a, b = nrm.num[0], nrm.den
        if a < 0:
            a, b = -a, -b
        return _elem(self.n, [c * b for c in y.num], y.den * a)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        self._check(other)
        return self * other.invert()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.invert() ** (-exp)
        if exp == 0:
            return CycloElem.rational(self.n, 1)
        acc = self  # the leading bit; square and multiply for the rest
        for bit in bin(exp)[3:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    # --- misc ---------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, CycloElem) and isinstance(other, (int, Fraction)):
            other = CycloElem.rational(self.n, other)
        return (
            isinstance(other, CycloElem)
            and self.n == other.n
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%s*z" % c)
            else:
                terms.append("%s*z^%d" % (c, i))
        return "CycloElem(%d: %s)" % (self.n, " + ".join(terms) if terms else "0")


def _set(x: CycloElem, n: int, num: list[int], den: int) -> CycloElem:
    """Store num / den in x in lowest terms; num has the field degree, den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    _set_n(x, n)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


# the slot descriptors' own setters, past the immutable __setattr__
_set_n, _set_num, _set_den = (CycloElem.__dict__[k].__set__ for k in CycloElem.__slots__)


def _elem(n: int, num: list[int], den: int) -> CycloElem:
    return _set(object.__new__(CycloElem), n, num, den)


def _reduce(ctx: GlobalContext, raw: Sequence[int]) -> list[int]:
    """Integer polynomial data mod Phi_n, on the power basis."""
    d = ctx.degree
    if len(raw) - d > len(ctx._power_rows):
        raise ContextError("raw degree %d too large to reduce" % (len(raw) - 1))
    out = list(raw[:d]) + [0] * max(0, d - len(raw))
    for c, row in zip(raw[d:], ctx._power_rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return out


def _spread(x: CycloElem, n: int, step: int) -> CycloElem:
    """x with zeta_x.n^i sent to zeta_n^(i * step), for n a multiple of x.n."""
    raw = [0] * n
    for i, c in enumerate(x.num):
        raw[i * step % n] += c
    return _elem(n, _reduce(context(n), raw), x.den)


def embed_level(x: CycloElem, new_n: int) -> CycloElem:
    """Embed Q(zeta_n) into Q(zeta_{new_n}) via zeta_n = zeta_{new_n}^(new_n/n).

    Requires n | new_n (same prime, higher power, or n trivial in new_n's
    tower: any supported new_n with x.n | new_n works)."""
    if new_n % x.n != 0:
        raise ContextError("cannot embed level %d into level %d" % (x.n, new_n))
    if new_n == x.n:
        return x
    return _spread(x, new_n, new_n // x.n)


# --- Galois action and norms ------------------------------------------


def galois_apply(x: CycloElem, t: int) -> CycloElem:
    """sigma_t(x): apply zeta -> zeta^t, t a unit mod x.n, coordinate-wise
    and re-reduce."""
    if gcd(t, x.n) != 1:
        raise ContextError("t=%d is not a unit mod %d" % (t, x.n))
    return _spread(x, x.n, t)


def _norm_parts(x: CycloElem) -> tuple:
    """(y, x * y) for y the product of sigma_t(x) over the units t != 1,
    so x * y = N(x); over Q, y is 1 and x * y is x, with no product."""
    units = context(x.n).units
    if len(units) < 2:
        return CycloElem.rational(x.n, 1), x
    y = _spread(x, x.n, units[1])
    for t in units[2:]:
        y = y * _spread(x, x.n, t)
    return y, x * y


def field_norm(x: CycloElem) -> Fraction:
    """Norm to Q: product over all Galois conjugates."""
    acc = _norm_parts(x)[1]
    if not acc.is_rational():
        raise ArithmeticError("norm did not land in Q: %r" % (acc,))
    return acc.rational_value()


def is_totally_positive(x: CycloElem) -> bool:
    """True iff x is positive under every real embedding.

    For n <= 2 the field is Q and this means x > 0; for n >= 3 the field is
    totally imaginary, so there are no real embeddings and the condition is
    vacuously true.
    """
    if x.is_zero():
        return False
    if x.n <= 2:
        return x.rational_value() > 0
    return True


# --- integral residue machinery ---------------------------------------


def phi_roots_mod_p(n: int, p: int) -> list[int]:
    """All roots of Phi_n mod p, ascending.  Requires p ≡ 1 mod n, p prime.

    The roots are exactly the elements of multiplicative order n: the first
    a^((p-1)/n), a = 2, 3, ..., of exact order n, closed under powers.
    This reproduces what a scan of F_p would find, in the same order.
    """
    if (p - 1) % n != 0:
        raise ValueError("p=%d is not 1 mod n=%d; Phi_n has no roots there" % (p, n))
    ctx = context(n)
    for a in range(2, p):
        w = pow(a, (p - 1) // n, p)
        # w^n = 1; exact order n iff w^(n/q) != 1 for the unique prime q | n
        if pow(w, n // ctx.prime, p) != 1:
            return sorted(pow(w, t, p) for t in ctx.units)
    raise ArithmeticError("no primitive n-th root found mod %d" % p)


def reduce_at(x: CycloElem, p: int, omega: int) -> int:
    """Residue of x at the place (p, omega), i.e. image under zeta -> omega;
    the denominator must be prime to p."""
    if gcd(x.den, p) != 1:
        raise ValueError("denominator %d not invertible mod %d" % (x.den, p))
    return horner(x.num, omega, p) * pow(x.den, -1, p) % p


@lru_cache(maxsize=None)
def lifted_root(n: int, p: int, omega: int, precision: int) -> int:
    """Hensel lift of omega to a root of Phi_n modulo p**precision.

    Phi_n is separable mod p (p does not divide n here), so Newton steps
    converge quadratically and the lift is unique above omega.
    """
    phi = context(n).phi_coeffs
    dphi = [i * c for i, c in enumerate(phi)][1:]
    modulus = p
    root = omega % p
    while modulus < p ** precision:
        modulus = min(modulus * modulus, p ** precision)
        f = horner(phi, root, modulus)
        fp = horner(dphi, root, modulus)
        root = (root - f * pow(fp, -1, modulus)) % modulus
    return root


def horner(coeffs: Sequence[int], x: int, modulus: int) -> int:
    """The integer polynomial with the given coefficients, constant term
    first, at x mod modulus."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k, the least strong pseudoprime to all of the first k prime bases
# (OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster,
# Math. Comp. 86, 2017): below psi_k those k bases decide primality.
_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
)
PRIME_PROOF_LIMIT = _PSI[-1]  # is_probable_prime proves primality below it


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin with the first k prime bases, k the least with
    m < psi_k: exact below psi_12 (about 3.2e23).  At or above psi_12 a
    base that fails still proves m composite, but an m that passes all
    twelve is refused with ValueError: psi_12 itself passes them."""
    if m < 2:
        return False
    for q in _PRIME_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES[: bisect_right(_PSI, m) + 1]:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= PRIME_PROOF_LIMIT:
        raise ValueError("%d passes all twelve bases at or above psi_12: primality unproven" % m)
    return True


# --- elements congruent to 1 ------------------------------------------


def norm_shell(n: int, m: int, lo: int, hi: int) -> Iterator[tuple]:
    """(N(x), coordinates of x) for every x ≡ 1 mod m in Z[zeta_n], n in
    NORM_LEVELS, with lo < N(x) <= hi and lo >= 0.

    At n = 2, x is an integer 1 + m*c and is its own norm.  At degree 2,
    x = a + b*zeta has N(x) = b^2 Phi_n(-a/b) = a^2 - c1*ab + c0*b^2 for
    Phi_n = x^2 + c1*x + c0; completing the square, 4N(x) = s^2 + D*b^2
    with s = 2a - c1*b and D = 4*c0 - c1^2 > 0.  So b runs over the
    multiples of m with D*b^2 <= 4*hi, and in each such row the shell is
    at most two intervals of s, whose ends are integer square roots: the
    walk visits no element outside the shell."""
    if n not in NORM_LEVELS:
        raise ContextError("no norm shell at level %d; it runs at %r" % (n, NORM_LEVELS))
    if n == 2:
        for a in _one_mod_range(lo + 1, hi, m):
            yield a, (a,)
        return
    c0, c1, _ = context(n).phi_coeffs
    D = 4 * c0 - c1 * c1
    top = isqrt(4 * hi // D) // m * m
    for b in range(-top, top + 1, m):
        outer = isqrt(4 * hi - D * b * b)
        inner = 4 * lo - D * b * b
        # |s| <= outer and s^2 > inner
        if inner < 0:
            spans = ((-outer, outer),)
        else:
            r = isqrt(inner) + 1
            spans = ((-outer, -r), (r, outer))
        for s0, s1 in spans:
            # a = (s + c1*b) / 2 for s0 <= s <= s1
            for a in _one_mod_range(-((-s0 - c1 * b) // 2), (s1 + c1 * b) // 2, m):
                yield a * a - c1 * a * b + c0 * b * b, (a, b)


def _one_mod_range(first: int, last: int, m: int) -> range:
    """The integers ≡ 1 mod m from first to last."""
    return range(first + (1 - first) % m, last + 1, m)
