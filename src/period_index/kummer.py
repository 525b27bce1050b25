"""Torsion bases, Galois representations on E[n], and Kummer coordinates.

A class is carried by a pair (a, b) of nonzero field elements: the Kummer
coordinates with respect to a pinned basis (S, T) of E[n] normalized so that
the Weil pairing e_n(S, T) is the pinned root zeta.  Its obstruction is read
locally through tame symbols of the pair: at a split place v the invariant
is <a, b>_v, and level shifts act by explicit operations on the pair:

  raising level by m:   (a, b) -> (a^m, b^m)      (invariants scale by m)
  multiplication by m:  representatives unchanged  (read m * level-mn value)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

from .cyclo import (
    CycloElem,
    GaloisAuto,
    context,
    embed_level,
    galois_apply,
)
from .ecq import CurveL, LPoint, torsion_pool, weil_pairing, zeta_dlog
from .localfield import Place, norm_support, tame_invariant


class BasisError(ValueError):
    pass


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True)
class TorsionBasis:
    """A pinned basis (S, T) of E[n] with e_n(S, T) = zeta_n exactly."""

    cv: CurveL
    n: int
    S: LPoint
    T: LPoint

    @cached_property
    def combos(self) -> dict:
        """point -> (i, j) over all i*S + j*T; total n^2 entries."""
        out = {}
        for k, P in enumerate(torsion_pool(self.cv, self.S, self.T, self.n)):
            out.setdefault(P, divmod(k, self.n))
        return out


def _exact_order(cv: CurveL, P: LPoint, n: int) -> bool:
    if cv.mul(n, P) is not None:
        return False
    q = context(n).prime
    return cv.mul(n // q, P) is not None


def make_basis(cv: CurveL, n: int, S: LPoint, T: LPoint) -> TorsionBasis:
    """Validate and normalize a candidate torsion basis.

    Both points must have exact order n and pair to a primitive root; T is
    rescaled so the pairing is zeta itself.  The basis is rejected outright
    if the points are dependent (pairing of non-maximal order)."""
    if cv.n != n:
        raise BasisError("curve level %d vs basis level %d" % (cv.n, n))
    for P in (S, T):
        if not cv.on_curve(P):
            raise BasisError("basis point not on the curve")
        if not _exact_order(cv, P, n):
            raise BasisError("basis point does not have exact order %d" % n)
    span_S, kS = set(), None
    for _ in range(n):
        span_S.add(kS)
        kS = cv.add(kS, S)
    if T in span_S:
        raise BasisError("T lies in the cyclic group generated by S")
    pool = torsion_pool(cv, S, T, n)
    e = weil_pairing(cv, n, S, T, pool)
    u = zeta_dlog(e, n)
    if gcd(u, n) != 1:
        raise BasisError("pairing has order %d < n; points are dependent" % (n // gcd(u, n)))
    if u != 1:
        T = cv.mul(pow(u, -1, n), T)
        e = weil_pairing(cv, n, S, T, pool)
        if zeta_dlog(e, n) != 1:
            raise BasisError("pairing normalization failed")
    return TorsionBasis(cv, n, S, T)


def galois_matrix(basis: TorsionBasis, t: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The matrix of sigma_t on the basis: columns are the images,

        sigma(S) = i*S + k*T,  sigma(T) = j*S + l*T  ->  ((i, j), (k, l)).

    Solved by exact enumeration of E[n], made once per basis, and
    verified on the curve."""
    cv, n = basis.cv, basis.n
    auto = GaloisAuto(n, t)
    table = basis.combos
    sS = cv.galois_point(auto, basis.S)
    sT = cv.galois_point(auto, basis.T)
    if sS not in table or sT not in table:
        raise RepresentationError("Galois image leaves the span of the basis")
    i, k = table[sS]
    j, l = table[sT]
    det = (i * l - j * k) % n
    if det != t % n:
        raise RepresentationError(
            "determinant %d of sigma_%d disagrees with pairing equivariance" % (det, t)
        )
    return ((i, j), (k, l))


def galois_representation(basis: TorsionBasis) -> dict[int, tuple]:
    """Matrices for every sigma_t, with the homomorphism property checked."""
    n = basis.n
    rep = {t: galois_matrix(basis, t) for t in context(n).units}
    for t1, m1 in rep.items():
        for t2, m2 in rep.items():
            if _mat_mul(m1, m2, n) != rep[(t1 * t2) % n]:
                raise RepresentationError("matrices fail to compose at (%d, %d)" % (t1, t2))
    return rep


def _mat_mul(A, B, n):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return (((a * e + b * g) % n, (a * f + b * h) % n),
            ((c * e + d * g) % n, (c * f + d * h) % n))


def is_upper_triangular(rep: dict[int, tuple]) -> bool:
    return all(m[1][0] == 0 for m in rep.values())


# ---------------------------------------------------------------- classes


@dataclass(frozen=True)
class KummerClass:
    """Kummer coordinates (a, b) of a class at level n (mod n-th powers)."""

    n: int
    a: CycloElem
    b: CycloElem

    def __post_init__(self):
        if self.a.n != self.n or self.b.n != self.n:
            raise ValueError("coordinate level mismatch")
        if self.a.is_zero() or self.b.is_zero():
            raise ZeroDivisionError("Kummer coordinates must be nonzero")


def local_invariant(kc: KummerClass, place: Place) -> Fraction:
    """inv_v of the class obstruction at a split place: the tame symbol."""
    if place.n != kc.n:
        raise ValueError("place level %d vs class level %d" % (place.n, kc.n))
    return tame_invariant(kc.a, kc.b, place)


def class_support(kc: KummerClass) -> set[int]:
    return norm_support(kc.a) | norm_support(kc.b)


def shift_class(kc: KummerClass, x: CycloElem) -> KummerClass:
    """Multiply the first coordinate by an n-th power: same class, different
    representative.  Used by tests of representative independence."""
    return KummerClass(kc.n, kc.a * x ** kc.n, kc.b)


def inflate_class(kc: KummerClass, m: int) -> KummerClass:
    """Push the class along E[n] -> E[mn]: coordinates are embedded into
    the bigger field and raised to the m-th power.  Local invariants of the
    image are m times the originals (read at compatibly refined places)."""
    mn = m * kc.n
    a = embed_level(kc.a, mn) ** m
    b = embed_level(kc.b, mn) ** m
    return KummerClass(mn, a, b)


def multiplied_invariant(kc: KummerClass, m: int, place: Place) -> Fraction:
    """Local invariant of the image of a level-mn class under the
    multiplication-by-m map down to level n: representatives are unchanged,
    the downstairs invariant is m times the upstairs read."""
    if kc.n % m != 0:
        raise ValueError("class level %d not divisible by %d" % (kc.n, m))
    return (m * local_invariant(kc, place)) % 1


# ---------------------------------------------------------------- norms


@dataclass(frozen=True)
class NormFactors:
    """The four monomial factors of the twisted norm of a seed pair.

    For the norm over Gal(L/Q) with matrices M_t = ((i, j), (k, l)) and
    twisted action kappa(xi^sigma) = (M/det M) applied to (sigma a, sigma b),
    the normed class has coordinates (c*cprime, d*dprime) where

        c      = prod_t sigma_t(a)^(i_t / det_t)
        cprime = prod_t sigma_t(b)^(j_t / det_t)
        d      = prod_t sigma_t(a)^(k_t / det_t)
        dprime = prod_t sigma_t(b)^(l_t / det_t)

    with exponents taken mod n.  d = 1 identically iff the representation
    is upper triangular."""

    n: int
    c: CycloElem
    cprime: CycloElem
    d: CycloElem
    dprime: CycloElem
    exponents: tuple  # ((t, det_inv, (ea_first, eb_first, ea_second, eb_second)), ...)

    def first(self) -> CycloElem:
        return self.c * self.cprime

    def second(self) -> CycloElem:
        return self.d * self.dprime


def twisted_norm(rep: dict[int, tuple], a: CycloElem, b: CycloElem) -> NormFactors:
    n = a.n
    if b.n != n:
        raise ValueError("mixed levels in norm seed")
    one = CycloElem.rational(n, 1)
    c = cp = d = dp = one
    trace = []
    for t in sorted(rep):
        (i, j), (k, l) = rep[t]
        det = (i * l - j * k) % n
        if gcd(det, n) != 1:
            raise RepresentationError("matrix for sigma_%d is not invertible mod %d" % (t, n))
        dinv = pow(det, -1, n)
        sa = galois_apply(GaloisAuto(n, t), a)
        sb = galois_apply(GaloisAuto(n, t), b)
        ea_first = i * dinv % n
        eb_first = j * dinv % n
        ea_second = k * dinv % n
        eb_second = l * dinv % n
        c = c * sa ** ea_first
        cp = cp * sb ** eb_first
        d = d * sa ** ea_second
        dp = dp * sb ** eb_second
        trace.append((t, dinv, (ea_first, eb_first, ea_second, eb_second)))
    return NormFactors(n, c, cp, d, dp, tuple(trace))


def twisted_sigma_image(rep_matrix, t: int, a: CycloElem, b: CycloElem):
    """kappa of the sigma_t-translate of a class: (M/det) . (sigma a, sigma b)."""
    n = a.n
    (i, j), (k, l) = rep_matrix
    det = (i * l - j * k) % n
    dinv = pow(det, -1, n)
    sa = galois_apply(GaloisAuto(n, t), a)
    sb = galois_apply(GaloisAuto(n, t), b)
    return (sa ** (i * dinv % n) * sb ** (j * dinv % n),
            sa ** (k * dinv % n) * sb ** (l * dinv % n))
