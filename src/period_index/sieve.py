"""Prime sieve producing admissible generator data for class construction.

A candidate is a split rational prime p (good reduction, p ≡ 1 mod the wild
modulus) together with a pinned generator pi of a degree-one prime above it:

  * |Norm(pi)| = p and pi has valuation exactly 1 at the distinguished place;
  * pi ≡ 1 mod the wild modulus, coordinate-wise (local n-th power at the
    wild place, so wild symbols vanish);
  * pi is totally positive (kills archimedean symbols; vacuous for n >= 3).

The first member of a pair additionally carries division witnesses: every
declared Mordell-Weil generator reduces into target_level * E(F_p) at its
place.  The second member must have full residue order n at the first
member's place while all of its proper Galois conjugates reduce to n-th
powers there.

The congruence is enforced modulo the wild part of the curve modulus only.
At tame bad places both class coordinates stay units, and unit-unit tame
symbols vanish identically, so nothing is lost; the full modulus would thin
the prime stream for no checkable gain.

Everything is scanned in a fixed ascending order, so results are a pure
function of (curve, level, bounds); there is no randomness to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional

from .cyclo import (
    CycloElem,
    GaloisAuto,
    context,
    galois_apply,
    is_probable_prime,
    is_totally_positive,
    reduce_at,
    solve_norm_equation,
    unit_group_window,
)
from .ecq import (
    CurveL,
    LPoint,
    bad_set as _bad_reduction_primes,
    divisibility_witness,
    group_structure,
    reduce_curve,
    reduce_point,
)
from .localfield import (
    Place,
    distinguished_place,
    is_one_mod,
    residue_power_order,
    wild_modulus,
)


class SieveExhausted(RuntimeError):
    """Raised with scan statistics when the bound runs out."""

    def __init__(self, message: str, stats: "SieveStats"):
        super().__init__("%s (%s)" % (message, stats.summary()))
        self.stats = stats


@dataclass
class SieveStats:
    """Per-condition rejection counts; the not-found histogram."""

    scanned: int = 0
    no_generator: int = 0
    unit_adjusted: int = 0
    divisibility_checked: int = 0
    divisibility_hits: int = 0
    pairs_tried: int = 0
    order_rejected: int = 0
    conjugate_rejected: int = 0

    def summary(self) -> str:
        return (
            "scanned=%d no_generator=%d generators=%d divisibility=%d/%d "
            "pairs_tried=%d order_rejected=%d conjugate_rejected=%d"
            % (
                self.scanned,
                self.no_generator,
                self.unit_adjusted,
                self.divisibility_hits,
                self.divisibility_checked,
                self.pairs_tried,
                self.order_rejected,
                self.conjugate_rejected,
            )
        )


@dataclass(frozen=True)
class PrimeCandidate:
    """A split prime with its pinned, congruence-adjusted generator."""

    n: int
    p: int
    pi: CycloElem
    place: Place
    # one (index, witness_point) per declared generator whose reduction
    # lies in target_level * E(F_p); None when not requested.
    divisibility: Optional[tuple] = None
    target_level: Optional[int] = None


@dataclass(frozen=True)
class SievePair:
    first: PrimeCandidate
    second: PrimeCandidate
    residue_order: int            # order of second.pi at first.place, must be n
    conjugate_orders: tuple       # (t, order) for t != 1; all orders must be 1


def split_prime_stream(cv: CurveL, n: int, bound: int) -> Iterator[int]:
    """Primes p <= bound with p ≡ 1 mod wild_modulus(n) and good reduction."""
    m = wild_modulus(n)
    bad = _bad_reduction_primes(cv)
    p = 1
    while True:
        p += m
        if p > bound:
            return
        if p in bad or not is_probable_prime(p):
            continue
        yield p


def _generator_coeff_bound(n: int, p: int) -> int:
    deg = context(n).degree
    if deg == 1:
        return p
    if deg == 2:
        return isqrt(4 * p // 3) + 2
    # best-effort levels: norms grow fast, coordinates stay small
    return isqrt(isqrt(p)) + 3


def attach_generator(
    n: int, p: int, unit_window: int = 1, coeff_bound: Optional[int] = None
) -> Optional[CycloElem]:
    """A generator pi of a prime over p with the three pinned properties,
    or None.  Deterministic: Galois conjugates and unit multiples of the
    canonical norm-equation solution are tried in a fixed order."""
    if coeff_bound is None:
        coeff_bound = _generator_coeff_bound(n, p)
    x0 = solve_norm_equation(n, p, coeff_bound)
    if x0 is None:
        return None
    m = wild_modulus(n)
    place = distinguished_place(n, p)
    units = unit_group_window(n, unit_window)
    for t in context(n).units:
        xt = galois_apply(GaloisAuto(n, t), x0)
        for u in units:
            y = u * xt
            if not is_one_mod(y, m):
                continue
            if not is_totally_positive(y):
                continue
            if reduce_at(y, place.p, place.omega) % p == 0:
                return y
    return None


def divisibility_data(
    cv: CurveL, place: Place, gens: list[LPoint], target_level: int
) -> Optional[tuple]:
    """Witnesses that every declared generator reduces into
    target_level * E(F_p) at the place; None if any fails."""
    cfp = reduce_curve(cv, place)
    st = group_structure(cfp)
    out = []
    for idx, g in enumerate(gens):
        gbar = reduce_point(cv, g, place)
        w = divisibility_witness(cfp, st, target_level, gbar)
        if w is None and gbar is not None:
            return None
        out.append((idx, w))
    return tuple(out)


def residue_order_profile(pi2: CycloElem, place: Place) -> tuple[int, tuple]:
    """Order of pi2 at the place, plus orders of its proper conjugates."""
    n, p = place.n, place.p
    r = reduce_at(pi2, p, place.omega)
    main = residue_power_order(r, n, p)
    conj = []
    for t in context(n).units:
        if t == 1:
            continue
        rt = reduce_at(galois_apply(GaloisAuto(n, t), pi2), p, place.omega)
        conj.append((t, residue_power_order(rt, n, p)))
    return main, tuple(conj)


def find_v(
    cv: CurveL,
    n: int,
    bound: int,
    mw_gens: list[LPoint],
    target_level: int,
    unit_window: int = 1,
    coeff_bound: Optional[int] = None,
) -> PrimeCandidate:
    """First candidate whose declared generators all divide down at its
    place.  This is the pair member carrying the division witnesses."""
    stats = SieveStats()
    for p in split_prime_stream(cv, n, bound):
        stats.scanned += 1
        pi = attach_generator(n, p, unit_window, coeff_bound)
        if pi is None:
            stats.no_generator += 1
            continue
        stats.unit_adjusted += 1
        place = distinguished_place(n, p)
        stats.divisibility_checked += 1
        wit = divisibility_data(cv, place, mw_gens, target_level)
        if wit is None:
            continue
        stats.divisibility_hits += 1
        return PrimeCandidate(n, p, pi, place, wit, target_level)
    raise SieveExhausted("no admissible prime below %d" % bound, stats)


def find_vprime(
    cv: CurveL,
    n: int,
    first: PrimeCandidate,
    bound: int,
    unit_window: int = 1,
    coeff_bound: Optional[int] = None,
) -> SievePair:
    """First partner for an already-found first member, in scan order.

    The partner must have full residue order n at the first member's place
    while its proper conjugates are n-th power residues there."""
    stats = SieveStats()
    for p in split_prime_stream(cv, n, bound):
        stats.scanned += 1
        if p == first.p:
            continue
        pi = attach_generator(n, p, unit_window, coeff_bound)
        if pi is None:
            stats.no_generator += 1
            continue
        stats.unit_adjusted += 1
        stats.pairs_tried += 1
        main, conj = residue_order_profile(pi, first.place)
        if main != n:
            stats.order_rejected += 1
            continue
        if any(o != 1 for _, o in conj):
            stats.conjugate_rejected += 1
            continue
        place = distinguished_place(n, p)
        return SievePair(first, PrimeCandidate(n, p, pi, place), main, conj)
    raise SieveExhausted("no admissible partner below %d" % bound, stats)


def find_pair(
    cv: CurveL,
    n: int,
    bound: int,
    mw_gens: list[LPoint],
    target_level: int,
    unit_window: int = 1,
    coeff_bound: Optional[int] = None,
) -> SievePair:
    """First admissible pair: find_v, then the first partner for it."""
    first = find_v(cv, n, bound, mw_gens, target_level, unit_window, coeff_bound)
    return find_vprime(cv, n, first, bound, unit_window, coeff_bound)
