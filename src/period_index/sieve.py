"""Prime sieve producing admissible generator data for class construction.

A candidate is a split rational prime p (p ≡ 1 mod the wild modulus, and
prime to the curve's bad_modulus, so the model has good reduction at every
place over p) together with a pinned generator pi of a degree-one prime
above it:

  * |Norm(pi)| = p and pi has valuation exactly 1 at the distinguished place;
  * pi ≡ 1 mod the wild modulus, coordinate-wise (local n-th power at the
    wild place, so wild symbols vanish);
  * pi is totally positive (kills archimedean symbols; vacuous for n >= 3).

The first member v of a pair additionally carries division witnesses:
every declared Mordell-Weil generator reduces into m * E(F_p) at its
place, m the target level.  The torsion basis (S, T) of E[n] reduces to a
basis of E[m] inside E(F_p) (m | n, p splits, p does not divide n), so
m | p - 1 and the reduced Tate pairing E(F_p)/mE(F_p) x E(F_p)[m] -> mu_m
is non-degenerate (Frey and Rück, Math. Comp. 62, 1994): a reduced
generator g lies in m * E(F_p) exactly when t_m(g, Q) = 1 for Q = (n/m)S
and Q = (n/m)T reduced.  That verdict is total: when no auxiliary point of
the pairing qualifies, E(F_p) has at most 2m points, so m = 2,
E(F_p) = E[2] and only O lies in 2 * E(F_p).  A prime is rejected by that
test, four short Miller evaluations over F_p and two powers mod p per
generator, without the group structure of E(F_p).  The witnesses come from
the group structure, built only at the prime the pairing accepts, so they
do not depend on the test; it counts E(F_p) only when Hasse's bound
leaves the count open (ecq.group_structure).  A generator the pairing accepts and the group
structure cannot divide is recorded without a witness, and the
certificate's witness check rejects it.  The partner v' must have full
residue order n at v's place while all of its proper Galois conjugates
reduce to n-th powers there (sigma_t(x) at omega is x at omega^t: none is
built).

The split primes are scanned once, in ascending order, and each generator
is attached once.  The candidates passed on the way to v are kept; the
partner is the first of them, or else the first candidate after v, that
qualifies.  That is the first partner in scan order other than v itself.

The congruence is enforced modulo the wild part of the curve modulus only.
At tame bad places both class coordinates stay units, and unit-unit tame
symbols vanish identically, so nothing is lost; the full modulus would thin
the prime stream for no checkable gain.

Results are a pure function of the curve, the level, the target level and
the prime bound; there is no randomness to seed and no other search limit.
The levels are those of cyclo.NORM_LEVELS (2, 3 and 4), where Z[zeta_n] is
a principal ideal domain whose units are the roots of unity.  The
generators are not solved for prime by prime: cyclo.norm_shell lists the
elements 1 + m*z, z integral and m the wild modulus, by norm, into a table
the scan extends in doubling shells as it passes the norms covered.  At n
= 2 the element of norm p is p, positive as every norm the walk lists.  At
degree 2 the elements of norm p are the unit multiples of the generators
pi and conj(pi) of the two primes over p; at most one multiple of each is
≡ 1 mod m (two would differ by (u - u')pi ≡ 0 mod m, with pi prime to m
and u - u' of norm at most 4 < m^2), and complex conjugation keeps the
congruence.  So a prime that carries a generator occurs exactly twice in
the walk, as pi and conj(pi), which vanish at the two roots of Phi_n mod
p; pi is the one at the smaller root, the distinguished place's, and a
function of p alone.  A prime with no entry has no generator.  The table
is keyed by norm and holds composite norms too: it is read only at the
primes of split_prime_stream, and the histogram counts them.  The stream
sieves the progression 1 + m*k by the primes below _SIEVE_LIMIT, so a
member it keeps is proven prime without a modular power; only a survivor
at or above _SIEVE_LIMIT^2 goes to is_probable_prime.
"""

from __future__ import annotations

from itertools import chain, compress
from math import isqrt
from typing import Iterator, Optional

from .cyclo import (
    CycloElem,
    Record,
    context,
    galois_apply,
    is_probable_prime,
    norm_shell,
    reduce_at,
)
from .ecq import (
    CurveL,
    LPoint,
    divisibility_by_pairing,
    divisibility_witness,
    group_structure,
    reduce_curve,
    reduce_point,
)
from .localfield import Place, residue_power_order, wild_modulus


# The progression is sieved by the primes below this; a member at or
# above its square that survives is proven prime by is_probable_prime.
_SIEVE_LIMIT = 1 << 16


class SieveExhausted(RuntimeError):
    """Raised with scan statistics when the bound runs out."""

    def __init__(self, message: str, stats: "SieveStats"):
        super().__init__("%s (%s)" % (message, stats.summary()))
        self.stats = stats


class SieveStats:
    """Per-condition counts of one scan, each prime counted once; the
    histogram a run prints.  Every count starts at 0."""

    __slots__ = ("scanned", "no_generator", "divisibility_checked", "divisibility_hits",
                 "pairs_tried", "order_rejected", "conjugate_rejected")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def summary(self) -> str:
        return (
            "scanned=%d no_generator=%d generators=%d divisibility=%d/%d "
            "pairs_tried=%d order_rejected=%d conjugate_rejected=%d"
            % (
                self.scanned,
                self.no_generator,
                self.scanned - self.no_generator,
                self.divisibility_hits,
                self.divisibility_checked,
                self.pairs_tried,
                self.order_rejected,
                self.conjugate_rejected,
            )
        )


class PrimeCandidate(Record):
    """A split prime with its pinned, congruence-adjusted generator."""

    __slots__ = ("p", "pi", "place")

    def __init__(self, p: int, pi: CycloElem, place: Place):
        super().__init__(p, pi, place)


class SievePair(Record):
    """The pair a scan finds.  witnesses holds one (index, W) per declared
    generator, as divisibility_data gives them at first.place; stats is
    the histogram of the whole scan."""

    __slots__ = ("first", "second", "witnesses", "stats")

    def __init__(self, first: PrimeCandidate, second: PrimeCandidate, witnesses: tuple,
                 stats: SieveStats):
        super().__init__(first, second, witnesses, stats)


def _primes_upto(n: int) -> list[int]:
    """The primes q <= n, by the sieve of Eratosthenes."""
    alive = bytearray([1]) * (n + 1)
    alive[:2] = b"\0\0"
    for q in range(2, isqrt(n) + 1):
        if alive[q]:
            alive[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return list(compress(range(n + 1), alive))


def split_prime_stream(cv: CurveL, bound: int) -> Iterator[int]:
    """Primes p <= bound with p ≡ 1 mod wild_modulus(cv.n) and good
    reduction: p does not divide cv.bad_modulus.

    The members 1 + m*k are sieved in segments (lo, hi] of values that
    double from (m, 2m], at most _SIEVE_LIMIT members each.  A composite
    member c has a prime factor q <= isqrt(c), prime to m, and c >= q^2,
    so striking the multiples of each such q from q^2 on leaves exactly
    the primes.  Only the q < _SIEVE_LIMIT strike, so a survivor at or
    above _SIEVE_LIMIT^2 is still proven by is_probable_prime."""
    m, bad, limit = wild_modulus(cv.n), cv.bad_modulus, _SIEVE_LIMIT
    lo = m
    while lo < bound:
        hi = min(bound, 2 * lo, lo + m * limit)
        first = (lo - 1) // m + 1  # the least k with 1 + m*k > lo
        alive = bytearray([1]) * ((hi - 1) // m - first + 1)
        for q in _primes_upto(min(isqrt(hi), limit - 1)):
            if m % q:
                k = max(first, -(-(q * q - 1) // m))
                start = k - first + (-pow(m, -1, q) - k) % q
                alive[start::q] = bytes(len(range(start, len(alive), q)))
        for k in compress(range(first, first + len(alive)), alive):
            p = 1 + m * k
            if bad % p and (p < limit * limit or is_probable_prime(p)):
                yield p
        lo = hi


def attach_generator(n: int, p: int) -> Optional[CycloElem]:
    """The pinned generator pi of the prime over p at the distinguished
    place, or None, read from the one shell (p - 1, p] of the table the
    scan walks."""
    if not is_probable_prime(p):
        raise ValueError("p=%d is not prime" % p)
    z = dict(norm_shell(n, wild_modulus(n), p - 1, p)).get(p)
    return None if z is None else _pinned(n, p, z).pi


def _pinned(n: int, p: int, z: tuple) -> PrimeCandidate:
    """The candidate at a prime p from the coordinates z of an element
    ≡ 1 mod m of norm p: at degree 2, z or its complex conjugate, the one
    that vanishes at the smaller root of Phi_n mod p."""
    pi = CycloElem(n, z)
    if n == 2:
        return PrimeCandidate(p, pi, Place(n, p, p - 1))
    a, b = z
    omega = -a * pow(b, -1, p) % p  # a + b*omega ≡ 0
    inverse = pow(omega, n - 1, p)  # where the conjugate a + b*zeta^-1 vanishes
    if inverse < omega:
        pi, omega = galois_apply(pi, n - 1), inverse
    return PrimeCandidate(p, pi, Place(n, p, omega))


def divisibility_data(
    cv: CurveL, place: Place, gens: list[LPoint], target_level: int
) -> tuple:
    """(index, W) per declared generator, W a point of E(F_p) with
    target_level * W the generator reduced at the place, or None.  O is
    its own witness, written None; a generator outside target_level *
    E(F_p) also gets None, which the certificate's witness check
    rejects."""
    cfp = reduce_curve(cv, place)
    st = group_structure(cfp)
    gbars = (reduce_point(cv, g, place) for g in gens)
    return tuple(
        (idx, None if gbar is None else divisibility_witness(cfp, st, target_level, gbar))
        for idx, gbar in enumerate(gbars)
    )


def _divisible_by_pairing(
    cv: CurveL, place: Place, gens: list[LPoint], target_level: int, basis: tuple
) -> bool:
    """Whether every declared generator reduces into target_level * E(F_p)
    at the place, by the reduced Tate pairing against the reduced basis
    of E[target_level]."""
    cfp = reduce_curve(cv, place)
    k = place.n // target_level
    Q = tuple(cfp.mul(k, reduce_point(cv, P, place)) for P in basis)
    return all(
        divisibility_by_pairing(cfp, target_level, reduce_point(cv, g, place), Q) for g in gens
    )


def residue_order_profile(pi2: CycloElem, place: Place) -> tuple[int, tuple]:
    """Order of pi2 at the place, plus (t, order) for its proper conjugates
    sigma_t(pi2): sigma_t(pi2) reduced at omega is pi2 reduced at omega^t."""
    n, p = place.n, place.p
    orders = [
        (t, residue_power_order(reduce_at(pi2, p, pow(place.omega, t, p)), n, p))
        for t in context(n).units
    ]
    return orders[0][1], tuple(orders[1:])


def _candidates(cv: CurveL, bound: int, stats: SieveStats) -> Iterator[PrimeCandidate]:
    """The split primes up to bound that carry a pinned generator, in
    ascending order; each prime is counted once in stats.  The table of
    elements ≡ 1 mod m by norm covers (0, covered] and doubles when the
    scan passes covered."""
    n, m = cv.n, wild_modulus(cv.n)
    table, covered = {}, 0
    for p in split_prime_stream(cv, bound):
        stats.scanned += 1
        if p > covered:
            lo, covered = covered, min(bound, max(p, 2 * covered))
            table.update(norm_shell(n, m, lo, covered))
        z = table.get(p)
        if z is None:
            stats.no_generator += 1
            continue
        yield _pinned(n, p, z)


def find_pair(
    cv: CurveL,
    bound: int,
    mw_gens: list[LPoint],
    target_level: int,
    basis: tuple,
) -> SievePair:
    """First admissible pair, in one scan of the split primes.

    The first member is the first candidate whose declared generators all
    divide down at its place; it carries the division witnesses, which
    construct checks.  basis is (S, T), a basis of E[n] over the field of
    the curve's level n; the Tate pairing against it rejects a prime, and
    divisibility_data runs only at the prime the pairing accepts.  The
    partner is the first other candidate, in scan order, with full
    residue order n at the first member's place while its proper
    conjugates are n-th power residues there."""
    stats = SieveStats()
    candidates = _candidates(cv, bound, stats)
    passed = []
    for first in candidates:
        stats.divisibility_checked += 1
        if not _divisible_by_pairing(cv, first.place, mw_gens, target_level, basis):
            passed.append(first)
            continue
        witnesses = divisibility_data(cv, first.place, mw_gens, target_level)
        stats.divisibility_hits += 1
        break
    else:
        raise SieveExhausted("no admissible prime below %d" % bound, stats)
    for second in chain(passed, candidates):
        stats.pairs_tried += 1
        main, conj = residue_order_profile(second.pi, first.place)
        if main != cv.n:
            stats.order_rejected += 1
            continue
        if any(o != 1 for _, o in conj):
            stats.conjugate_rejected += 1
            continue
        return SievePair(first, second, witnesses, stats)
    raise SieveExhausted("no admissible partner below %d" % bound, stats)
