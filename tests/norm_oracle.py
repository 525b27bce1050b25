"""The norm-equation oracle for the sieve's generators.

The sieve reads its generators off a walk over the elements ≡ 1 mod m
(cyclo.norm_shell).  This module finds them the other way, prime by
prime: solve_norm_equation gives a generator of the prime at the place
by Lagrange reduction, associates lists its unit multiples, and
pinned_generator keeps the one multiple ≡ 1 mod the wild modulus when it
is totally positive.  No code is shared with the walk."""

from typing import Optional

from period_index.cyclo import NORM_LEVELS, ContextError, CycloElem, is_totally_positive
from period_index.localfield import distinguished_place, is_one_mod, wild_modulus

# At each level of NORM_LEVELS, the action of zeta on the power-basis
# coordinates; at degree 2, the norm form of a + b*zeta as (A, B, C),
# Norm = A a^2 + B ab + C b^2.
TIMES_ZETA = {
    2: lambda a: (-a,),  # zeta = -1: L = Q
    3: lambda a, b: (-b, a - b),  # zeta^2 = -1 - zeta
    4: lambda a, b: (-b, a),  # zeta^2 = -1
}
NORM_FORMS = {3: (1, -1, 1), 4: (1, 0, 1)}


def solve_norm_equation(place) -> CycloElem:
    """A generator of the prime (p, zeta - omega) of the split place, for
    a prime p at a level in NORM_LEVELS.  At n = 2 it is p.  At degree 2
    it is the vector a + b*zeta that Lagrange reduction finds."""
    n, p = place.n, place.p
    if n not in NORM_LEVELS:
        raise ContextError("no norm equation solver at level %d; it runs at %r" % (n, NORM_LEVELS))
    if n == 2:
        return CycloElem.rational(n, p)
    return _solve_norm_quadratic(n, p, place.omega)


def associates(n: int, w: tuple) -> list:
    """The coordinates of u*w over the 2n roots of unity u of a level in
    NORM_LEVELS, in the order +-1, +-zeta, ..., +-zeta^(n-1); w is a tuple
    of integer power-basis coordinates."""
    times_zeta = TIMES_ZETA[n]
    out = []
    x, y = w, tuple([-c for c in w])
    for _ in range(n):
        out.append(x)
        out.append(y)
        x, y = times_zeta(*x), times_zeta(*y)
    return out


def _solve_norm_quadratic(n: int, p: int, omega: int) -> CycloElem:
    # The elements a + b*zeta of the prime (p, zeta - omega) are the lattice
    # a + b*omega ≡ 0 mod p, with basis (p, 0), (-omega, 1).  That prime is
    # principal (Z[i] and Z[zeta_3] are PIDs), so the norm form's minimum on
    # the lattice is p, and Lagrange reduction finds a vector pi of norm p
    # (Cohen, GTM 138, 1.3.14 and 1.5.2).  pi lies in the lattice, so it
    # generates the prime and vanishes at the place.
    A, B, C = NORM_FORMS[n]

    def form(v):
        return A * v[0] * v[0] + B * v[0] * v[1] + C * v[1] * v[1]

    def polar(u, v):
        # twice the bilinear form of `form`
        return 2 * A * u[0] * v[0] + B * (u[0] * v[1] + u[1] * v[0]) + 2 * C * u[1] * v[1]

    u, v = (p, 0), (-omega, 1)
    qu, qv = form(u), form(v)
    if qu < qv:
        u, v, qu, qv = v, u, qv, qu
    while True:
        k = (polar(u, v) + qv) // (2 * qv)  # the nearest integer to B(u, v) / Q(v)
        u = (u[0] - k * v[0], u[1] - k * v[1])
        qu = form(u)
        if qu >= qv:
            break
        u, v, qu, qv = v, u, qv, qu
    if qv != p:
        raise ArithmeticError("shortest vector of norm %d, not %d" % (qv, p))
    return CycloElem(n, v)


def pinned_generator(n: int, p: int) -> Optional[CycloElem]:
    """The generator of the prime over p at the distinguished place that
    is ≡ 1 mod the wild modulus and totally positive, or None: of the unit
    multiples of the solved generator, at most one meets the congruence."""
    m = wild_modulus(n)
    for y in associates(n, solve_norm_equation(distinguished_place(n, p)).num):
        pi = CycloElem(n, y)
        if is_one_mod(pi, m):
            return pi if is_totally_positive(pi) else None
    return None
