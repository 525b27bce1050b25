"""Exact arithmetic in prime-power cyclotomic fields L = Q(zeta_n).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(n)-1) as
integer coordinates over one common positive denominator, so every
operation here is exact; inverses go through the norm.  Scope: n is a prime
power; n in {2, 3, 4} is fully supported (class number one, torsion units
only), n in {5, 8, 9} is best-effort (bounded unit windows, see NORM_UNITS).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence


SUPPORTED_LEVELS = (2, 3, 4, 5, 8, 9)


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


@dataclass(frozen=True)
class GaloisAuto:
    """The automorphism zeta -> zeta^t for a unit t mod n."""

    n: int
    t: int

    def __post_init__(self):
        if gcd(self.t, self.n) != 1:
            raise ContextError("t=%d is not a unit mod %d" % (self.t, self.n))

    def inverse(self) -> "GaloisAuto":
        return GaloisAuto(self.n, pow(self.t, -1, self.n))


class CycloElem:
    """An element of Q(zeta_n) on the power basis: integer numerators over
    one positive denominator, in lowest terms (gcd(num..., den) = 1), so
    equal elements have equal fields."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Iterable):
        ctx = context(n)
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > ctx.degree:
            # fold high powers down; lets callers pass raw polynomial data
            num = _reduce(ctx, num)
        num += [0] * (ctx.degree - len(num))
        _set(self, n, num, den)

    def __setattr__(self, *a):  # immutable by convention
        raise AttributeError("CycloElem is immutable")

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

    def denominator(self) -> int:
        return self.den

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
        d = len(self.num)
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num, i):
                    raw[j] += a * b
        return _elem(self.n, _reduce(context(self.n), raw), self.den * other.den)

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
        y = _conjugate_product(self)
        nrm = self * y
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
        acc = CycloElem.rational(self.n, 1)
        base = self
        e = exp
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
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
    object.__setattr__(x, "n", n)
    object.__setattr__(x, "num", tuple(num))
    object.__setattr__(x, "den", den)
    return x


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


def galois_apply(auto: GaloisAuto, x: CycloElem) -> CycloElem:
    """Apply zeta -> zeta^t coordinate-wise and re-reduce."""
    if auto.n != x.n:
        raise ContextError("automorphism level %d vs element level %d" % (auto.n, x.n))
    return _spread(x, x.n, auto.t)


def conjugates(x: CycloElem) -> list[CycloElem]:
    ctx = context(x.n)
    return [galois_apply(GaloisAuto(x.n, t), x) for t in ctx.units]


def _conjugate_product(x: CycloElem) -> CycloElem:
    """The product of sigma_t(x) over the units t != 1."""
    acc = CycloElem.rational(x.n, 1)
    for t in context(x.n).units[1:]:
        acc = acc * _spread(x, x.n, t)
    return acc


def field_norm(x: CycloElem) -> Fraction:
    """Norm to Q: product over all Galois conjugates."""
    acc = x * _conjugate_product(x)
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


def evaluate_mod(x: CycloElem, root: int, modulus: int) -> int:
    """Evaluate the coordinate polynomial at `root` modulo `modulus`.

    Denominators must be invertible mod `modulus`.
    """
    if gcd(x.den, modulus) != 1:
        raise ValueError("denominator %d not invertible mod %d" % (x.den, modulus))
    acc = 0
    for c in reversed(x.num):
        acc = (acc * root + c) % modulus
    return acc * pow(x.den, -1, modulus) % modulus


def phi_roots_mod_p(n: int, p: int) -> list[int]:
    """All roots of Phi_n mod p, ascending.  Requires p ≡ 1 mod n, p prime.

    The roots are exactly the elements of multiplicative order n, so one is
    constructed as g^((p-1)/n) from a small search, then closed under powers.
    This reproduces what a scan of F_p would find, in the same order.
    """
    if (p - 1) % n != 0:
        raise ValueError("p=%d is not 1 mod n=%d; Phi_n has no roots there" % (p, n))
    q = _prime_power_split(n)[0]
    for a in range(2, p):
        w = pow(a, (p - 1) // n, p)
        # w^n = 1; exact order n iff w^(n/q) != 1 for the unique prime q | n
        if pow(w, n // q, p) != 1:
            return sorted(pow(w, t, p) for t in context(n).units)
    raise ArithmeticError("no primitive n-th root found mod %d" % p)


def split_place(n: int, p: int) -> tuple[int, int]:
    """Pin the distinguished place of L over a split prime p: (p, omega).

    omega is the smallest root of Phi_n mod p; it necessarily has exact
    multiplicative order n.
    """
    if p < 2 or not is_probable_prime(p):
        raise ValueError("p=%d is not prime" % p)
    if n % p == 0:
        raise ValueError("p=%d divides n=%d; not a split place" % (p, n))
    omega = phi_roots_mod_p(n, p)[0]
    return (p, omega)


def reduce_at(x: CycloElem, p: int, omega: int) -> int:
    """Residue of x at the place (p, omega), i.e. image under zeta -> omega."""
    return evaluate_mod(x, omega, p)


@lru_cache(maxsize=None)
def lifted_root(n: int, p: int, omega: int, precision: int) -> int:
    """Hensel lift of omega to a root of Phi_n modulo p**precision.

    Phi_n is separable mod p (p does not divide n here), so Newton steps
    converge quadratically and the lift is unique above omega.
    """
    phi = cyclotomic_poly(n)
    dphi = [i * c for i, c in enumerate(phi)][1:]
    modulus = p
    root = omega % p
    while modulus < p ** precision:
        modulus = min(modulus * modulus, p ** precision)
        f = _int_poly_eval(phi, root, modulus)
        fp = _int_poly_eval(dphi, root, modulus)
        root = (root - f * pow(fp, -1, modulus)) % modulus
    return root


def _int_poly_eval(coeffs: Sequence[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def is_probable_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for the 64-bit range used here."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# --- norm equations ----------------------------------------------------

# Units used for congruence adjustment of norm-equation solutions.  Torsion
# units (+-zeta^k) exist for every n; the entries below add generators of the
# infinite part for the best-effort levels (verified unit norms in tests).
NORM_UNITS = {
    5: [[1, 1, 0, 0]],          # 1 + zeta_5
    8: [[1, 1, 0, -1]],         # 1 + zeta_8 - zeta_8^3 = 1 + sqrt(2)
    9: [[1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]],
}


def _coord_key(c: int) -> tuple[int, int]:
    # nonnegative values first (ascending), then negative (by magnitude)
    return (0, c) if c >= 0 else (1, -c)


def vector_key(coeffs: Sequence[int]) -> tuple:
    """Canonical order for integral coordinate vectors.

    Comparison runs from the highest-power coefficient down, preferring small
    nonnegative values.  This is the tie-break used everywhere a generator
    must be pinned deterministically.
    """
    return tuple(_coord_key(int(c)) for c in reversed(list(coeffs)))


def _coord_range(bound: int) -> list[int]:
    return sorted(range(-bound, bound + 1), key=_coord_key)


def solve_norm_equation(n: int, p: int, coeff_bound: int) -> Optional[CycloElem]:
    """Search integral x with |Norm(x)| = p and coordinates within the bound.

    Returns the first hit in canonical vector order (see vector_key), or None
    if the bound is exhausted.  p must be a split prime (p ≡ 1 mod n).
    """
    if (p - 1) % n != 0:
        raise ValueError("p=%d is not 1 mod n=%d" % (p, n))
    deg = context(n).degree
    if deg == 1:
        # L = Q; the only elements of norm +-p are +-p.
        if p <= coeff_bound:
            return CycloElem.rational(n, p)
        return None
    if deg == 2:
        return _solve_norm_quadratic(n, p, coeff_bound)
    return _solve_norm_generic(n, p, coeff_bound)


def _solve_norm_quadratic(n: int, p: int, bound: int) -> Optional[CycloElem]:
    # Norm(a + b*zeta) is a^2 - ab + b^2 for n=3, a^2 + b^2 for n=4.
    # Loop over the outer coefficient b and solve the quadratic in a exactly.
    assert n in (3, 4)
    for b in _coord_range(bound):
        candidates = []
        if n == 4:
            rest = p - b * b
            if rest >= 0:
                r = isqrt(rest)
                if r * r == rest and abs(r) <= bound:
                    candidates = [r, -r] if r else [0]
        else:
            # a^2 - ab + (b^2 - p) = 0  =>  a = (b +- sqrt(4p - 3 b^2)) / 2
            disc = 4 * p - 3 * b * b
            if disc >= 0:
                r = isqrt(disc)
                if r * r == disc:
                    for a2 in (b + r, b - r):
                        if a2 % 2 == 0 and abs(a2 // 2) <= bound:
                            candidates.append(a2 // 2)
        for a in sorted(set(candidates), key=_coord_key):
            x = CycloElem(n, [a, b])
            if abs(field_norm(x)) == p:
                return x
    return None


def _solve_norm_generic(n: int, p: int, bound: int) -> Optional[CycloElem]:
    # Best-effort scope (phi(n) in {4, 6}): plain nested search in canonical
    # order with an exact norm check.  Bounds should stay small.
    deg = context(n).degree
    rng = _coord_range(bound)

    def rec(idx: int, coords: list[int]):
        if idx < 0:
            if all(c == 0 for c in coords):
                return None
            x = CycloElem(n, coords)
            if abs(field_norm(x)) == p:
                return x
            return None
        for c in rng:
            coords[idx] = c
            hit = rec(idx - 1, coords)
            if hit is not None:
                return hit
        coords[idx] = 0
        return None

    return rec(deg - 1, [0] * deg)


def torsion_units(n: int) -> list[CycloElem]:
    """All roots of unity in Q(zeta_n): +-zeta^k."""
    out = []
    for k in range(n):
        z = CycloElem.zeta(n, k)
        out.extend([z, -z])
    return out


def unit_group_window(n: int, window: int) -> list[CycloElem]:
    """Units available for generator adjustment: torsion times a bounded
    window of the recorded infinite-part generators (best-effort levels)."""
    base = torsion_units(n)
    extras = NORM_UNITS.get(n, [])
    if not extras or window <= 0:
        return base
    out = []
    exps = [e for e in range(-window, window + 1)]
    stack = [base]
    for g in extras:
        gen = CycloElem(n, g)
        powers = [gen ** e for e in exps]
        stack.append(powers)
    # cartesian product of torsion with each window
    def prod(acc, rest):
        if not rest:
            return acc
        return prod([a * r for a in acc for r in rest[0]], rest[1:])

    out = prod(stack[0], stack[1:])
    return out
