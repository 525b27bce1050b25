"""Split places of Q(zeta_n), exact local valuations, and tame symbols.

A split place is pinned by a pair (p, omega): p a rational prime with
p ≡ 1 mod n and p not dividing n, omega a root of Phi_n mod p.  The
completion there is Q_p, the element zeta maps to omega, and p itself is a
uniformizer.  All invariants land in (1/n)Z/Z, stored as Fractions in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import (
    CycloElem,
    Record,
    context,
    horner,
    is_probable_prime,
    lifted_root,
    phi_roots_mod_p,
)


class WildPlaceError(ValueError):
    """Raised when a tame-only computation meets a place over a prime of n."""


class Place(Record):
    """A split finite place of Q(zeta_n), pinned by its residue root."""

    __slots__ = ("n", "p", "omega")

    def __init__(self, n: int, p: int, omega: int):
        if gcd(p, n) != 1:
            raise WildPlaceError("p=%d divides n=%d" % (p, n))
        if (p - 1) % n != 0:
            raise ValueError("p=%d is not 1 mod %d; place is not split" % (p, n))
        if pow(omega, n, p) != 1:
            raise ValueError("omega=%d is not an n-th root of 1 mod %d" % (omega, p))
        q = context(n).prime
        if n > 1 and pow(omega, n // q, p) == 1:
            raise ValueError("omega=%d has order below n=%d" % (omega, n))
        super().__init__(n, p, omega)

    def __eq__(self, other):
        return isinstance(other, Place) and (self.n, self.p, self.omega) == (
            other.n, other.p, other.omega)

    def __hash__(self):
        return hash((self.n, self.p, self.omega))


def distinguished_place(n: int, p: int) -> Place:
    """The canonical place over a prime p prime to n: the smallest root
    of Phi_n mod p, which has exact multiplicative order n."""
    if p < 2 or not is_probable_prime(p):
        raise ValueError("p=%d is not prime" % p)
    if n % p == 0:
        raise ValueError("p=%d divides n=%d; not a split place" % (p, n))
    return Place(n, p, phi_roots_mod_p(n, p)[0])


def places_over(n: int, p: int) -> list[Place]:
    return [Place(n, p, w) for w in phi_roots_mod_p(n, p)]


def refine_place(place: Place, m: int) -> Place:
    """Lift a level-n place to level m*n, compatibly: the new residue root x
    satisfies x^m = omega.  Requires p ≡ 1 mod m*n; among the m admissible
    roots the smallest is pinned."""
    mn = m * place.n
    if (place.p - 1) % mn != 0:
        raise ValueError("p=%d is not 1 mod %d; cannot refine" % (place.p, mn))
    roots = [x for x in phi_roots_mod_p(mn, place.p) if pow(x, m, place.p) == place.omega]
    if not roots:
        raise ArithmeticError("no compatible level-%d root over omega=%d" % (mn, place.omega))
    return Place(mn, place.p, min(roots))


# ------------------------------------------------------------ valuations


def _p_adic_split(m: int, p: int) -> tuple[int, int]:
    """m = p^k * u with p not dividing u; returns (k, u).  m != 0."""
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k, m


def valuation(x: CycloElem, place: Place) -> int:
    """Exact valuation of x at the place (uniformizer p, e = f = 1)."""
    v, _ = valuation_and_unit(x, place)
    return v


def valuation_and_unit(x: CycloElem, place: Place) -> tuple[int, int]:
    """(v, u): the valuation v of x at the place and the residue u of
    x / p^v there, a unit mod p.

    The integral y = d*x (d the denominator, so y's coordinates are x's
    numerators) is evaluated at the Hensel-lifted root modulo p^k, for
    k = 2, 4, 8, ... until the residue is nonzero; v(y) and the unit are
    read from that residue.  The loop ends: the place has e = f = 1, so
    zeta -> the lifted root embeds Q(zeta_n) in Q_p, a nonzero x has a
    nonzero image there, and its residue is nonzero once p^k passes it."""
    if x.n != place.n:
        raise ValueError("element level %d vs place level %d" % (x.n, place.n))
    if x.is_zero():
        raise ZeroDivisionError("valuation of zero")
    n, p, omega = x.n, place.p, place.omega
    k = 1
    e = 0
    while not e:
        k *= 2
        e = horner(x.num, lifted_root(n, p, omega, k), p**k)
    vy, u_y = _p_adic_split(e, p)
    dk, du = _p_adic_split(x.den, p)
    return vy - dk, u_y * pow(du, -1, p) % p


# ------------------------------------------------------------ symbols


def dlog_in_mu_n(t: int, place: Place) -> int:
    """Discrete log of t base omega inside mu_n(F_p).  t must lie in mu_n."""
    n, p, w = place.n, place.p, place.omega
    acc = 1
    for k in range(n):
        if acc == t % p:
            return k
        acc = acc * w % p
    raise ValueError("t=%d is not in the group generated by omega=%d mod %d" % (t, w, p))


def tame_invariant(a: CycloElem, b: CycloElem, place: Place) -> Fraction:
    """Local invariant of the degree-n tame symbol of (a, b) at the place.

    The tame symbol unit is r = (-1)^(v(a)v(b)) a^(v(b)) b^(-v(a)); the
    invariant is dlog_omega(rbar^((p-1)/n)) / n, a Fraction in [0, 1).
    """
    n, p = place.n, place.p
    va, ua = valuation_and_unit(a, place)
    vb, ub = valuation_and_unit(b, place)
    sign = p - 1 if (va * vb) % 2 else 1
    r = sign * pow(ua, vb, p) * pow(ub, -va, p) % p
    t = pow(r, (p - 1) // n, p)
    k = dlog_in_mu_n(t, place)
    return Fraction(k % n, n)


def invariant_order(inv: Fraction) -> int:
    """Order of an invariant in Q/Z: its reduced denominator, which no
    integer shift changes."""
    return inv.denominator


def archimedean_invariant(a: Fraction, b: Fraction) -> Fraction:
    """Invariant of the real quadratic symbol (a, b)_infinity over Q.

    Only the degree-2 symbol over Q has a nontrivial real place: 1/2 when
    both entries are negative, else 0.
    """
    if a == 0 or b == 0:
        raise ZeroDivisionError("symbol entry is zero")
    return Fraction(1, 2) if a < 0 and b < 0 else Fraction(0)


def residue_power_order(u: int, n: int, p: int) -> int:
    """Order of u in F_p^* / (F_p^*)^n.  Requires p ≡ 1 mod n, p prime."""
    if (p - 1) % n != 0:
        raise ValueError("p=%d not 1 mod n=%d" % (p, n))
    if u % p == 0:
        raise ZeroDivisionError("u is 0 mod p")
    t = pow(u, (p - 1) // n, p)
    # order of t inside the cyclic group mu_n
    order = 1
    acc = t
    while acc != 1:
        acc = acc * t % p
        order += 1
        if order > n:
            raise ArithmeticError("order search escaped mu_n; p is not prime?")
    return order


# ------------------------------------------------------------ wild policy


def wild_modulus(n: int) -> int:
    """Rational congruence modulus m(n) = q^(2k+1) for n = q^k.

    If an algebraic integer x satisfies x ≡ 1 mod m(n) coordinate-wise on
    the power basis, then x is a local n-th power at the unique wild place,
    so degree-n symbols with x in either slot vanish there.  (One-unit level
    (2k+1)phi(n) clears the classical bound k*phi(n) + q^(k-1).)
    """
    ctx = context(n)
    return ctx.prime ** (2 * ctx.prime_exp + 1)


def is_one_mod(x: CycloElem, modulus: int) -> bool:
    """Coordinate-wise test x ≡ 1 mod modulus on the power basis."""
    # an integral x's numerators are its coordinates: the denominator is 1
    co = x.num
    return x.is_integral() and (co[0] - 1) % modulus == 0 and all(
        c % modulus == 0 for c in co[1:]
    )


# ------------------------------------------------------------ factoring


def _pollard_rho(m: int) -> int:
    """A proper factor of a composite m, from the walks x -> x^2 + c,
    x0 = 2, for c = 1, 2, ... in turn."""
    for c in range(1, m):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = gcd(abs(x - y), m)
        if d != m:
            return d
    raise ArithmeticError("no walk x -> x^2 + c splits %d" % m)


def factorint(m: int) -> dict[int, int]:
    """Prime factorization of |m| as {prime: exponent}.  m != 0.  Raises
    ValueError on a cofactor whose primality is_probable_prime refuses."""
    if m == 0:
        raise ZeroDivisionError("factorint(0)")
    m = abs(m)
    out: dict[int, int] = {}
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out

