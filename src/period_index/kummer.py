"""Torsion bases, Galois representations on E[n], and Kummer coordinates.

A class is carried by a pair (a, b) of nonzero field elements: the Kummer
coordinates with respect to a pinned basis (S, T) of E[n] normalized so that
the Weil pairing e_n(S, T) is the pinned root zeta.  The basis is checked
exactly in L only for what the certificate records (S and T on the curve,
nS = nT = O, T rescaled, at n = 2 their order); its independence, its
pairing and the Galois matrices on it are read at one auxiliary split
prime q, the least prime to the curve's bad_modulus, through the curve
layer's reduce_curve and reduce_point: there reduction is injective on
E[n].  Its obstruction is
read locally through tame symbols of the pair: at a split place v the
invariant is <a, b>_v, and level shifts act by explicit operations on the
pair:

  raising level by m:   (a, b) -> (a^m, b^m)      (invariants scale by m)
  multiplication by m:  representatives unchanged  (read m * level-mn value)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import (
    CycloElem,
    Record,
    context,
    embed_level,
    galois_apply,
    is_probable_prime,
    reduce_at,
)
from .ecq import CurveL, LPoint, reduce_curve, reduce_point, torsion_pool, weil_pairing
from .localfield import Place, distinguished_place, dlog_in_mu_n, tame_invariant


class BasisError(ValueError):
    pass


class RepresentationError(ValueError):
    pass


class TorsionBasis(Record):
    """A pinned basis (S, T) of E[n] with e_n(S, T) = zeta_n exactly, the
    auxiliary place it is read at, and its table of E[n] there: the
    reduction of i*S + j*T -> (i, j), n^2 entries.  Two bases are equal
    when they have the same curve object, level and points."""

    __slots__ = ("cv", "n", "S", "T", "place", "combos")

    def __init__(self, cv: CurveL, n: int, S: LPoint, T: LPoint, place: Place, combos: dict):
        super().__init__(cv, n, S, T, place, combos)

    def __eq__(self, other):
        return isinstance(other, TorsionBasis) and (self.cv, self.n, self.S, self.T) == (
            other.cv, other.n, other.S, other.T)


def _auxiliary_place(cv: CurveL) -> Place:
    """The distinguished place over the least prime q = 1 mod n that does
    not divide cv.bad_modulus.  The model has good reduction at every
    place over q, so the coordinates of the points of E[n] are integral
    there (Silverman, AEC VII.3.4) and reduction is injective on E[n]
    (VII.3.1)."""
    n = cv.n
    q = n + 1
    while cv.bad_modulus % q == 0 or not is_probable_prime(q):
        q += n
    return distinguished_place(n, q)


def make_basis(cv: CurveL, n: int, S: LPoint, T: LPoint) -> TorsionBasis:
    """Validate and normalize a candidate torsion basis.

    In L: S and T lie on the curve and nS = nT = O.  The rest is read at
    the auxiliary place over q, where E[n] reduces injectively: the n^2
    reductions iS + jT are distinct exactly when S and T are independent
    of exact order n, and they are the basis's table of E[n].  Reduction
    sends zeta to omega and commutes with the Weil pairing (Silverman,
    AEC III.8), so e_n(S, T) = zeta^u for u the log to the base omega of
    the pairing of the reductions, read at R = 2S + T: for n >= 3, R and
    T + R lie outside <S>, and -R and S - R outside <T>.  T is replaced
    by u^-1 * T, so the pairing is zeta itself.  At n = 2, where every
    basis has pairing -1, (S, T) is pinned as the two points of order 2
    with the larger x, ascending; the third is S + T."""
    if cv.n != n:
        raise BasisError("curve level %d vs basis level %d" % (cv.n, n))
    for P in (S, T):
        if not cv.on_curve(P):
            raise BasisError("basis point not on the curve")
    if cv.mul(n, S) is not None or cv.mul(n, T) is not None:
        raise BasisError("basis point does not have exact order %d" % n)
    third = cv.add(S, T) if n == 2 else None
    if third is not None and None not in (S, T):
        S, T = sorted((S, T, third), key=lambda P: P[0].rational_value())[1:]
    place = _auxiliary_place(cv)
    cfp = reduce_curve(cv, place)
    Sq, Tq = (reduce_point(cv, P, place) for P in (S, T))
    combos = {P: divmod(k, n) for k, P in enumerate(torsion_pool(cfp, Sq, Tq, n))}
    if len(combos) != n * n:
        raise BasisError(
            "the %d points iS + jT are not distinct: S and T are dependent "
            "or of order below %d" % (n * n, n)
        )
    e = weil_pairing(cfp, n, Sq, Tq, cfp.add(cfp.mul(2, Sq), Tq))
    u = dlog_in_mu_n(e, place)
    if u != 1:
        # T = u*T', so i*S + j*T = i*S + (j*u)*T'
        T = cv.mul(pow(u, -1, n), T)
        combos = {P: (i, j * u % n) for P, (i, j) in combos.items()}
    return TorsionBasis(cv, n, S, T, place, combos)


def galois_matrix(basis: TorsionBasis, t: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The matrix of sigma_t on the basis: columns are the images,

        sigma(S) = i*S + k*T,  sigma(T) = j*S + l*T  ->  ((i, j), (k, l)).

    sigma_t fixes a rational model, and sigma_t(P) reduced at omega is P
    reduced at the residue of sigma_t(zeta), omega^t, so the images are
    read off the basis's table at q, which holds all of E[n].  Checked
    against the pairing."""
    cv, n, place = basis.cv, basis.n, basis.place
    if not cv.is_rational_model():
        raise RepresentationError("Galois action needs a model with rational coefficients")
    omega_t = reduce_at(galois_apply(CycloElem.zeta(n), t), place.p, place.omega)
    conj = Place(n, place.p, omega_t)
    i, k = basis.combos[reduce_point(cv, basis.S, conj)]
    j, l = basis.combos[reduce_point(cv, basis.T, conj)]
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


class KummerClass(Record):
    """Kummer coordinates (a, b) of a class at level n (mod n-th powers)."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: CycloElem, b: CycloElem):
        if a.n != n or b.n != n:
            raise ValueError("coordinate level mismatch")
        if a.is_zero() or b.is_zero():
            raise ZeroDivisionError("Kummer coordinates must be nonzero")
        super().__init__(n, a, b)


def local_invariant(kc: KummerClass, place: Place) -> Fraction:
    """inv_v of the class obstruction at a split place: the tame symbol."""
    if place.n != kc.n:
        raise ValueError("place level %d vs class level %d" % (place.n, kc.n))
    return tame_invariant(kc.a, kc.b, place)


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


class NormFactors(Record):
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

    __slots__ = ("n", "c", "cprime", "d", "dprime", "exponents")

    # exponents: ((t, det_inv, (ea_first, eb_first, ea_second, eb_second)), ...)
    def __init__(self, n: int, c: CycloElem, cprime: CycloElem, d: CycloElem,
                 dprime: CycloElem, exponents: tuple):
        super().__init__(n, c, cprime, d, dprime, exponents)

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
        sa = galois_apply(a, t)
        sb = galois_apply(b, t)
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
    sa = galois_apply(a, t)
    sb = galois_apply(b, t)
    return (sa ** (i * dinv % n) * sb ** (j * dinv % n),
            sa ** (k * dinv % n) * sb ** (l * dinv % n))
