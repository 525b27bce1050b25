"""End-to-end period/index certification.

A certificate fixes a level n, a symbol target ell | n, and a prime pair
(p, p') produced by the sieve, and then proves two claims about the curve
carried by the class with Kummer seed (pi, pi'^(n/ell)):

  period claim   the class has order exactly n: for every 0 < m < n the
                 first Kummer coordinate of the m-fold class has valuation
                 m at v (m times the valuation 1 of the first coordinate,
                 read from the v-row), nonzero mod n, while the divisibility
                 witnesses at v kill every possible shift by a rational
                 point (the Tate term vanishes there).
  index claim    the index equals n*ell: the invariant of the normed pair
                 at v has exact order ell, which bounds the index by
                 n*ell from above and keeps each shift ell'*inv by a
                 proper divisor ell' of ell nonzero at v, which rules out
                 every smaller index of the form n*ell'.

Four construction routes share one entry, certify, and one assembly
path:

  direct, n odd        the obstruction is literally the tame symbol of
                       the normed pair (odd levels carry no two-torsion
                       ambiguity).
  direct, n = 2        the obstruction is the quaternion symbol (a, b):
                       the classical identification is exact at level 2,
                       so the same bookkeeping applies verbatim.
  direct, n = 4        mode B with 4 | ell only: symbols are read up to
                       two-torsion, so conjugate places agree after
                       doubling.  Mode A is refused there.
  doubled, n even      all claims are made for the double of a level-2n
                       class.  Doubling kills the two-torsion ambiguity:
                       the target-level invariant is exactly twice the
                       raw level-2n reading, so conjugate places must
                       agree after doubling even though raw readings may
                       differ.

Each certificate section has its own derivation (_route, _pair, _class,
_obstruction, _period, _index_upper, _index_lower, _summary) that runs
its hard checks of the claims algebra, and _SECTIONS declares the inputs
each section reads.  certify feeds them the pair the sieve finds;
verify_certificate reads the inputs a certificate records, with the
readers a run configuration is read with, feeds them to the same
derivations and diffs the recorded certificate against the result path
by path: no search, no sieve, no randomness.  Serialization
is canonical JSON with all integers as decimal strings and local
invariants as "k/n".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

# hashlib loads OpenSSL's libcrypto, about 3.5 MB and 3 ms per process;
# the interpreter's built-in SHA-256 gives the same digest without it
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .cyclo import (
    NORM_LEVELS,
    CycloElem,
    Record,
    context,
    field_norm,
    is_probable_prime,
    is_totally_positive,
    reduce_at,
)
from .ecq import CurveError, CurveL, LPoint, curve_over, reduce_curve, reduce_point
from .kummer import (
    TorsionBasis,
    galois_representation,
    is_upper_triangular,
    make_basis,
    twisted_norm,
)
from .localfield import (
    Place,
    archimedean_invariant,
    distinguished_place,
    invariant_order,
    is_one_mod,
    places_over,
    tame_invariant,
    valuation,
    wild_modulus,
)
from .sieve import find_pair, residue_order_profile

SCHEMA = "period-index-certificate/1"

_IDENTITY_REP = {1: ((1, 0), (0, 1))}

# fixed vocabulary for the justification markers embedded in certificates
_SHIFT_MARKER = "generators-divisible-at-v"
_UPPER_RULE = "index-divides-level-times-symbol-order"
_DOUBLING_LAW = "target-level-invariant-is-twice-raw"


class _Named:
    """Mixin for failures that name certificate paths: the field a check
    derives first, then the inputs it reads."""

    def __init__(self, msg: str, *paths: str):
        super().__init__(msg)
        self.paths = paths


class InputError(_Named, ValueError):
    """Bad hypotheses or malformed input data (user-fixable)."""


class LemmaFailure(_Named, RuntimeError):
    """A consistency check that the theory guarantees has failed.

    Every condition checked under this exception is a theorem given the
    sieve conditions, so in construct a failure indicates an
    implementation bug; in verify it means the recorded inputs are
    corrupt, never a legitimate mathematical outcome."""


# =====================================================================
# Canonical serialization
# =====================================================================


def _s(v: int) -> str:
    return str(int(v))


def inv_str(fr: Fraction, level: int) -> str:
    k = fr * level
    if k.denominator != 1:
        raise LemmaFailure("invariant %s is not a multiple of 1/%d" % (fr, level))
    return "%d/%d" % (int(k) % level, level)


def elem_coeffs(x: CycloElem) -> list:
    """Each coordinate in lowest terms, "a" or "a/b"."""
    out = []
    for c in x.num:
        g = gcd(c, x.den)
        out.append("%d" % (c // g) if g == x.den else "%d/%d" % (c // g, x.den // g))
    return out


def point_obj(P: LPoint):
    if P is None:
        return "infinity"
    return {"x": elem_coeffs(P[0]), "y": elem_coeffs(P[1])}


def fp_point_obj(P):
    if P is None:
        return "infinity"
    return [_s(P[0]), _s(P[1])]


def place_obj(place: Place) -> dict:
    return {"level": _s(place.n), "p": _s(place.p), "root": _s(place.omega)}


def canonical_json(obj) -> str:
    """One byte stream per certificate: json.dumps(obj, sort_keys=True,
    indent=2, separators=(",", ": ")) and a newline, written directly,
    since an indent sends json.dumps to its pure-Python encoder."""
    out = []
    _write_json(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write_json(x, nl: str, put) -> None:
    """Pass x's JSON to put, each line of its body after nl (a newline
    and the indent); strings through json's own C escaper."""
    if isinstance(x, str):
        return put(encode_basestring_ascii(x))
    if isinstance(x, dict):
        if not x:
            return put("{}")
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            put(sep + encode_basestring_ascii(k) + ": ")
            _write_json(x[k], inner, put)
            sep = "," + inner
        return put(nl + "}")
    if isinstance(x, (list, tuple)):
        if not x:
            return put("[]")
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            put(sep)
            _write_json(v, inner, put)
            sep = "," + inner
        return put(nl + "]")
    put(json.dumps(x))


def content_digest(obj) -> str:
    return sha256(canonical_json(obj).encode()).hexdigest()


# =====================================================================
# Claims algebra
# =====================================================================


def lichtenbaum_check(period: int, index: int) -> bool:
    """period | index and index | period^2 (genus-one duality bound)."""
    if period < 1 or index < 1:
        raise InputError("period and index must be positive")
    return index % period == 0 and (period * period) % index == 0


# =====================================================================
# Assembly helpers
# =====================================================================


def _require_rational_data(cv: CurveL, mw_gens: list):
    if not cv.is_rational_model():
        raise InputError(
            "rational claims need a model with rational coefficients",
            "inputs.curve.coefficients",
        )
    for i, g in enumerate(mw_gens):
        if g is not None and not (g[0].is_rational() and g[1].is_rational()):
            raise InputError(
                "generator %d is not rational; claims are made over Q" % i,
                "inputs.curve.mw_generators[%d]" % i,
            )


_WITNESSES = "pair.first.conditions.generators_divisible.witnesses"
# the inputs the normed pair is derived from
_NORMED = (
    "context.ell", "context.mode", "route.kind", "inputs.curve.level",
    "inputs.curve.coefficients", "inputs.curve.torsion_basis", "pair.first.pi", "pair.second.pi",
)
# Each derived section of a prime-power certificate: the prefix a
# failure there carries (what a claim section leaves unproven), and the
# inputs the section is derived from.  A failed check in a section names
# the field it derives and then these inputs; a diff inside the section
# names the field and, in its message, these inputs, since the edit may
# sit on either side.
_SECTIONS = {
    "context": ("", ("context.n", "context.ell", "context.mode", "route.kind",
                     "inputs.curve.level")),
    "route": ("", ("context.n", "context.ell", "route.kind", "inputs.curve.level",
                   "inputs.curve.torsion_basis")),
    "pair": ("", ("context.n", "inputs.curve.level", "inputs.curve.coefficients",
                  "inputs.curve.mw_generators", "pair.first.pi", "pair.second.pi",
                  _WITNESSES)),
    "class": ("", _NORMED),
    "obstruction": ("", ("context.n",) + _NORMED),
    "period": ("period unproven: ", ("context.n",) + _NORMED),
    "index_upper": ("index upper bound unproven: ", ("context.n", "context.ell")),
    "index_lower": ("index lower bound unproven: ", ("context.n",) + _NORMED),
    "lichtenbaum_ok": ("", ("context.n", "context.ell")),
    "summary": ("", ("context.n", "context.ell", "pair.first.pi", "pair.second.pi")),
}


def _lemma(holds: bool, msg: str, field: str, *indexed: str):
    """Unless a guaranteed fact holds, raise LemmaFailure naming the
    derived field, any indexed inputs the check reads, then the inputs of
    the field's section."""
    if not holds:
        prefix, reads = _SECTIONS[field.split(".")[0]]
        raise LemmaFailure(prefix + msg, field, *indexed, *reads)


def _factor_over(value: Fraction, primes) -> list:
    """Factor |value| over the given primes exactly; the remainder must
    be a unit, since the normed pair is a monomial in the two generators
    and their conjugates."""
    _lemma(value.denominator == 1, "norm of an integral element is not an integer",
           "obstruction.support")
    rest, out = abs(value.numerator), []
    for q in sorted(set(primes)):
        e = 0
        while rest % q == 0:
            rest //= q
            e += 1
        if e:
            out.append([_s(q), _s(e)])
    _lemma(rest == 1, "normed pair has support outside the sieved pair", "obstruction.support")
    return out


def _row(place: Place, inv: Fraction) -> dict:
    return {
        "place": place_obj(place),
        "invariant": inv_str(inv, place.n),
        "order": _s(invariant_order(inv)),
    }


def _rep_obj(rep: dict) -> list:
    out = []
    for t in sorted(rep):
        (i, j), (k, l) = rep[t]
        out.append([_s(t), [[_s(i), _s(j)], [_s(k), _s(l)]]])
    return out


def _curve_block(cv: CurveL, basis: TorsionBasis, mw_gens: list) -> dict:
    return {
        "level": _s(cv.n),
        "coefficients": [elem_coeffs(a) for a in cv.coefficient_list()],
        "torsion_basis": {"S": point_obj(basis.S), "T": point_obj(basis.T)},
        "mw_generators": [point_obj(g) for g in mw_gens],
        "stable_subgroup_order": _s(cv.n),
    }


# =====================================================================
# Route preconditions, shared by construct and verify
# =====================================================================


class Route(Record):
    """Every fact of a certification route, decided once by _preconditions:
    the target n and ell, the mode, whether the claims are doubled, the
    construction level, the symbol order ell_sym read at v, the Galois
    action rep, whether the claims are made over Q, a direct route's
    symbol exactness (None when doubled) and the place-consistency rule."""

    __slots__ = ("n", "ell", "mode", "doubled", "level", "ell_sym", "rep", "rational",
                 "exactness", "consistency")


def _preconditions(
    cv: CurveL, basis: TorsionBasis, mw_gens: list, *,
    mode: str, doubled: bool, target_n: int, target_ell: int,
) -> Route:
    """Check a route's hypotheses on the curve data and decide its facts.
    Errors name the certificate fields that record each hypothesis."""
    N = cv.n
    if mode not in ("A", "B"):
        raise InputError("mode must be A or B", "context.mode")
    # an even level above 2 reads symbols only up to two-torsion unless
    # the claims are doubled, so places and reciprocity compare doubles
    ambiguous = target_n % 2 == 0 and target_n > 2
    if doubled:
        if target_n < 2 or target_n & (target_n - 1):
            raise InputError(
                "doubling applies to levels that are powers of two", "context.n", "route.kind"
            )
        if target_ell not in (1, 2):
            raise InputError(
                "symbol target %d is handled by the direct modes; doubling is only needed "
                "for targets 1 and 2" % target_ell, "context.ell", "route.kind",
            )
        exactness, consistency = None, "doubles-equal"
    elif target_ell < 1 or target_n % target_ell:
        raise InputError(
            "symbol target %d does not divide the level %d" % (target_ell, target_n),
            "context.ell", "context.n",
        )
    elif ambiguous and target_ell % 4:
        raise InputError(
            "even level %d with symbol target %d needs doubled data: construct at level %d "
            "and route through even_adjust" % (target_n, target_ell, 2 * target_n),
            "context.ell", "context.n", "route.kind",
        )
    elif ambiguous and mode == "A":
        # the seed pair's doubled invariant is 1/2 at v and 0 at the other places over p
        raise InputError(
            "mode A cannot certify at the even level %d: the seed pair breaks the "
            "doubles-equal rule at every pair; use mode B" % target_n, "context.mode", "context.n",
        )
    elif ambiguous:
        exactness, consistency = "two-torsion-ambiguous", "doubles-equal"
    else:
        exactness = "odd-level" if target_n % 2 else "quaternion"
        consistency = "independent" if mode == "A" and target_n > 2 else "equal"
    level = 2 * target_n if doubled else target_n
    if N != level:
        raise InputError(
            "the %s route requires curve data at level %d, got level %d"
            % ("doubled" if doubled else "direct", level, N), "context.n", "inputs.curve.level",
        )
    rational = doubled or mode == "B" or context(N).degree == 1
    if rational:
        _require_rational_data(cv, mw_gens)
    # direct mode A reads the seed pair itself: the norm step is the identity
    rep = dict(_IDENTITY_REP) if mode == "A" and not doubled else galois_representation(basis)
    if not is_upper_triangular(rep):
        raise InputError(
            "the route needs a stable subgroup: the basis action must be upper triangular",
            "inputs.curve.torsion_basis",
        )
    return Route(target_n, target_ell, mode, doubled, N, 2 * target_ell if doubled else target_ell,
                 rep, rational, exactness, consistency)


# =====================================================================
# The derivation shared by construct and verify
# =====================================================================


def _pair_member(pi: CycloElem, level: int, path: str) -> tuple:
    """The place and the object of a pair generator, after its pinned
    conditions: a prime norm p, the wild congruence, total positivity, and
    valuation one at the distinguished place over p."""
    cond = path + ".conditions."
    nm = field_norm(pi)
    p, m = abs(nm.numerator), wild_modulus(level)
    try:
        prime = nm.denominator == 1 and is_probable_prime(p)
    except ValueError:  # too large for the primality test to prove
        prime = False
    _lemma(prime, "generator norm %s is not a proven prime" % nm, cond + "prime_norm")
    _lemma(is_one_mod(pi, m), "generator is not congruent to 1 mod %d" % m,
           cond + "congruent_one_mod_wild")
    _lemma(is_totally_positive(pi), "generator is not totally positive", cond + "totally_positive")
    place = distinguished_place(level, p)
    _lemma(reduce_at(pi, p, place.omega) % p == 0, "generator is a unit at its own place",
           cond + "vanishes_at_own_place")
    conditions = {
        "prime_norm": {"norm": _s(p)},
        "congruent_one_mod_wild": {"modulus": _s(m)},
        "totally_positive": True,
        "vanishes_at_own_place": True,
    }
    return place, {"p": _s(p), "pi": elem_coeffs(pi), "place": place_obj(place),
                   "conditions": conditions}


def _route(basis: TorsionBasis, route: Route) -> tuple:
    """The context and route sections."""
    ctx = {
        "n": _s(route.n),
        "ell": _s(route.ell),
        "mode": route.mode,
        "zeta_pairing_power": "1",
        "claims_field": "rational" if route.rational else "cyclotomic",
    }
    if route.doubled:
        return ctx, {
            "kind": "doubled",
            "construction_level": _s(route.level),
            "target_level": _s(route.n),
            "raw_symbol_order_at_v": _s(route.ell_sym),
            "stable_generator_rational": bool(
                basis.S[0].is_rational() and basis.S[1].is_rational()
            ),
            "doubling_law": _DOUBLING_LAW,
        }
    return ctx, {"kind": "direct", "construction_level": _s(route.level),
                 "symbol_exactness": route.exactness}


def _pair(
    cv: CurveL, mw_gens: list, pi: CycloElem, pi_prime: CycloElem, witnesses: tuple,
    target_n: int,
) -> tuple:
    """The pair section and the place of each member: the pinned
    conditions on both generators, the divisibility witnesses ((index,
    point) per declared generator) at the first place, and the residue
    orders of the second generator there."""
    N = cv.n
    v, first = _pair_member(pi, N, "pair.first")
    vp, second = _pair_member(pi_prime, N, "pair.second")
    _lemma(v.p != vp.p, "pair members sit over the same prime %d" % v.p, "pair.second.p")
    _lemma(len(witnesses) == len(mw_gens), "need one witness per declared generator", _WITNESSES)
    try:
        cfp = reduce_curve(cv, v)
    except CurveError as e:
        _lemma(False, str(e), _WITNESSES)
    for (i, W), g in zip(witnesses, mw_gens):
        on_curve = W is None or (all(0 <= c < v.p for c in W) and cfp.on_curve(W))
        _lemma(on_curve and cfp.mul(target_n, W) == reduce_point(cv, g, v),
               "witness does not divide the generator down", "%s[%d]" % (_WITNESSES, i),
               "inputs.curve.mw_generators[%d]" % i)
    residue_order, conjugate_orders = residue_order_profile(pi_prime, v)
    sc = "pair.second.conditions."
    _lemma(residue_order == N, "second generator must have full order %d at the first place" % N,
           sc + "residue_order_at_first_place")
    _lemma(all(o == 1 for _, o in conjugate_orders),
           "a proper conjugate is not an n-th power residue at the first place",
           sc + "conjugate_orders")
    first["conditions"]["generators_divisible"] = {
        "level": _s(target_n),
        "witnesses": [[_s(i), fp_point_obj(w)] for i, w in witnesses],
    }
    second["conditions"]["residue_order_at_first_place"] = _s(residue_order)
    second["conditions"]["conjugate_orders"] = [[_s(t), _s(o)] for t, o in conjugate_orders]
    return {"first": first, "second": second}, v, vp


def _class(rep: dict, pi: CycloElem, pi_prime: CycloElem, ell_sym: int) -> tuple:
    """The class section, its four norm factors and the normed pair, under
    the upper triangular action _preconditions admits."""
    N = pi.n
    # the Kummer seed of symbol target ell_sym; _preconditions checked ell_sym | N
    a, b = pi, pi_prime ** (N // ell_sym)
    nf = twisted_norm(rep, a, b)
    normed = nf.first(), nf.second()
    factors = {"c": nf.c, "cprime": nf.cprime, "d": nf.d, "dprime": nf.dprime}
    _lemma(nf.d == CycloElem.rational(N, 1),
           "norm factor d differs from 1 under a triangular action", "class.norm_factors.d")
    section = {
        "seed_pair": {
            "first": elem_coeffs(a),
            "second": elem_coeffs(b),
            "power_exponent": _s(N // ell_sym),
        },
        "representation": _rep_obj(rep),
        "upper_triangular": True,
        "norm_factors": {
            **{k: elem_coeffs(x) for k, x in factors.items()},
            "exponents": [[_s(t), _s(dinv), [_s(e) for e in es]] for t, dinv, es in nf.exponents],
        },
        "normed_pair": {"first": elem_coeffs(normed[0]), "second": elem_coeffs(normed[1])},
    }
    return section, factors, normed


def _obstruction(factors: dict, normed: tuple, v: Place, vp: Place, route: Route) -> tuple:
    """The obstruction section, and the target-level invariant at v that
    the index rows shift: the v-row and its sub-symbols, the local rows at
    every place over the pair and their consistency rule, the descended
    rows and reciprocity for rational claims, the global order, and the
    places away from the pair.  The global order is ell with no check of
    its own: the v-row check fixes the target order at v to ell, the
    local_rows check gives v' that order, and the independent rule of
    cyclotomic claims puts every other row at 0."""
    first, second = normed
    p, pp, N = v.p, vp.p, v.n
    vals = {k: valuation(x, v) for k, x in factors.items()}
    _lemma(list(vals.values()) == [1, 0, 0, 0], "valuations at v are not (1, 0, 0, 0): %r" % vals,
           "obstruction.v_row.valuations")
    inv_v = tame_invariant(first, second, v)
    _lemma(invariant_order(inv_v) == route.ell_sym,
           "v-invariant has order %d, expected the symbol target %d"
           % (invariant_order(inv_v), route.ell_sym), "obstruction.v_row.order")
    subs = {
        "%s_%s" % (a, b): tame_invariant(factors[a], factors[b], v)
        for a in ("c", "cprime")
        for b in ("d", "dprime")
    }
    # _class checked d = 1, so <c, d> = 0 needs no check
    _lemma(sum(subs.values()) % 1 == inv_v,
           "sub-symbols at v do not add up to the invariant with <c, d> = 0",
           "obstruction.v_row.sub_symbols")
    inv_vp = tame_invariant(first, second, vp)
    _lemma(invariant_order(inv_vp) == invariant_order(inv_v),
           "symbol order at v' differs from the order at v", "obstruction.local_rows")

    # every place over the pair, one prime at a time: v and v' (each the
    # first place over its prime) as computed, then their conjugates
    consistency, local, target_invs = route.consistency, [], {}
    for w0, raw in ((v, inv_v), (vp, inv_vp)):
        conj = [(w, tame_invariant(first, second, w)) for w in places_over(N, w0.p)[1:]]
        if consistency == "equal":
            agree = all(inv == raw for _, inv in conj)
        elif consistency == "doubles-equal":
            agree = all(2 * (inv - raw) % 1 == 0 for _, inv in conj)
        else:
            # the seed pair is supported at the two pinned primes only, so
            # proper conjugate places see two units
            agree = not any(inv for _, inv in conj)
        _lemma(agree, "conjugate places over %d break the %s rule" % (w0.p, consistency),
               "obstruction.local_rows")
        local += [(w0, raw)] + conj
        target_invs[w0.p] = (2 * raw) % 1 if route.doubled else raw

    if route.rational:
        # a two-torsion-ambiguous reading pins only the doubles
        scale = 2 if route.exactness == "two-torsion-ambiguous" else 1
        _lemma(scale * sum(target_invs.values()) % 1 == 0,
               "descended rows break the product formula", "obstruction.reciprocity_sum")

    # --- places away from the pair ---
    m_wild = wild_modulus(N)
    _lemma(is_one_mod(first, m_wild) and is_one_mod(second, m_wild),
           "normed pair lost the wild congruence", "obstruction.wild")
    if context(N).degree == 1:
        arch_inv = archimedean_invariant(first.rational_value(), second.rational_value())
        _lemma(arch_inv == 0, "real place is obstructed despite total positivity",
               "obstruction.archimedean")
        arch = {
            "kind": "real",
            "first_positive": True,
            "second_positive": True,
            "invariant": inv_str(arch_inv, N),
        }
    else:
        arch = {"kind": "complex", "invariant": inv_str(Fraction(0), N)}
    # spot checks at the first two split primes past the pair: both
    # coordinates are units there, so the invariants must vanish
    unit_rows, q = [], max(p, pp)
    while len(unit_rows) < 2:
        q += 1
        if q % N != 1 or not is_probable_prime(q):
            continue
        w = distinguished_place(N, q)
        inv = tame_invariant(first, second, w)
        _lemma(inv == 0, "unit-unit invariant at %d is nonzero" % q, "obstruction.unit_rows")
        unit_rows.append(_row(w, inv))

    section = {
        "local_rows": [_row(w, inv) for w, inv in sorted(local, key=lambda row: row[0].p)],
        "v_row": {
            **_row(v, inv_v),
            "valuations": {k: _s(val) for k, val in vals.items()},
            "d_is_one": True,
            "sub_symbols": {k: inv_str(sv, N) for k, sv in subs.items()},
        },
        "support": {
            "first": _factor_over(field_norm(first), (p, pp)),
            "second": _factor_over(field_norm(second), (p, pp)),
        },
        "wild": {
            "modulus": _s(m_wild),
            "first_congruent": True,
            "second_congruent": True,
            "invariant": inv_str(Fraction(0), N),
        },
        "archimedean": arch,
        "unit_rows": unit_rows,
        "place_consistency": consistency,
        "global_order": _s(route.ell),
        "reciprocity_sum": "0/1",
    }
    if route.rational:
        section["descended_rows"] = [
            {"p": _s(q), "invariant": inv_str(i, route.n), "order": _s(invariant_order(i))}
            for q, i in target_invs.items()
        ]
    return section, target_invs[p] if route.rational else inv_v


def _period(target_n: int) -> dict:
    """Every proper multiple of the class stays nonzero: the first
    coordinate c*c' has valuation 1 at v, as _obstruction pins v(c) = 1 and
    v(c') = 0, and valuations add, so the m-fold first coordinate has
    valuation m at v, nonzero mod n for 0 < m < n."""
    return {
        "claim": _s(target_n),
        "first_coordinate_valuation": "1",
        "rows": [{"m": _s(m), "valuation": _s(m)} for m in range(1, target_n)],
        "shift_vanishing": _SHIFT_MARKER,
    }


def _index_upper(target_n: int, target_ell: int) -> dict:
    return {"claim": _s(target_n * target_ell), "symbol_order_at_v": _s(target_ell),
            "rule": _UPPER_RULE}


def _index_lower(inv_target_v: Fraction, target_n: int, target_ell: int) -> dict:
    """Shifts to every smaller candidate level: each is nonzero, as the
    target invariant at v has exact order ell (_obstruction)."""
    rows = [
        {"ell_prime": _s(ellp), "shifted_invariant": inv_str(ellp * inv_target_v, target_n)}
        for ellp in range(1, target_ell)
        if target_ell % ellp == 0
    ]
    return {"claim": _s(target_n * target_ell), "rows": rows, "tate_vanishing": _SHIFT_MARKER}


def _summary(target_n: int, target_ell: int, p: int, pp: int) -> dict:
    """The claims; they keep the duality bound, which holds iff ell | n,
    as on every route _preconditions admits."""
    return {"period": _s(target_n), "index": _s(target_n * target_ell), "places": [_s(p), _s(pp)]}


def _certificate(
    cv: CurveL, basis: TorsionBasis, mw_gens: list, pi: CycloElem, pi_prime: CycloElem,
    witnesses: tuple, route: Route, recorded=None,
) -> dict:
    """The prime-power certificate of a pair of generators on a route, one
    section at a time.  Runs every hard check of the claims algebra; a
    failure raises LemmaFailure naming the derived field and the inputs its
    section reads.  recorded is verify's (curve block, digest), the digest
    already checked against the block: a derived block the same as it has
    that digest, so it is not hashed again."""
    pair, v, vp = _pair(cv, mw_gens, pi, pi_prime, witnesses, route.n)
    cls, factors, normed = _class(route.rep, pi, pi_prime, route.ell_sym)
    obstruction, inv_target_v = _obstruction(factors, normed, v, vp, route)
    ctx, route_section = _route(basis, route)
    curve = _curve_block(cv, basis, mw_gens)
    if recorded and _same(curve, recorded[0]):
        digest = recorded[1]
    else:
        digest = content_digest(curve)
    return {
        "schema": SCHEMA,
        "kind": "prime-power",
        "context": ctx,
        "route": route_section,
        "inputs": {"curve": curve, "digest": digest},
        "pair": pair,
        "class": cls,
        "obstruction": obstruction,
        "period": _period(route.n),
        "index_upper": _index_upper(route.n, route.ell),
        "index_lower": _index_lower(inv_target_v, route.n, route.ell),
        "lichtenbaum_ok": True,
        "summary": _summary(route.n, route.ell, v.p, vp.p),
    }


# =====================================================================
# Public certification routes
# =====================================================================


def certify(
    cv: CurveL, basis: TorsionBasis, mw_gens: list, prime_bound: int, *,
    mode: str, doubled: bool, target_n: int, target_ell: int,
) -> dict:
    """The certificate of a route: the direct route at level target_n, or
    the doubled one from data at level 2 * target_n.  The pair is the
    first the sieve finds below prime_bound; the curve data and that bound
    fix the whole search."""
    route = _preconditions(cv, basis, mw_gens, mode=mode, doubled=doubled, target_n=target_n,
                           target_ell=target_ell)
    # the only search in the pipeline
    pair = find_pair(cv, prime_bound, mw_gens, target_n, (basis.S, basis.T))
    return _certificate(cv, basis, mw_gens, pair.first.pi, pair.second.pi, pair.witnesses, route)


def certify_mode_A(
    cv: CurveL,
    basis: TorsionBasis,
    ell: int,
    mw_gens: list,
    prime_bound: int,
) -> dict:
    """Certify with the full torsion rational over the coefficient field.

    The norm step degenerates to the identity, so the seed pair itself is
    read locally.  Level 2 is exact (quaternion symbols); odd levels are
    exact.  Even levels above 2 are refused: there the seed pair's
    invariant has order 4 at v and is 0 at the other places over p, so
    the doubles-equal rule fails at every pair.  Use certify_mode_B with
    4 | ell, or doubled-level data through even_adjust.  The pair search
    is certify's."""
    return certify(
        cv, basis, mw_gens, prime_bound, mode="A", doubled=False, target_n=cv.n, target_ell=ell
    )


def certify_mode_B(
    cv: CurveL,
    basis: TorsionBasis,
    ell: int,
    mw_gens: list,
    prime_bound: int,
) -> dict:
    """Certify over Q by corestriction from the cyclotomic field.

    Requires a stable subgroup: the action on the pinned basis must be
    upper triangular (the trivial action at level 2 qualifies).  The pair
    search is certify's."""
    return certify(
        cv, basis, mw_gens, prime_bound, mode="B", doubled=False, target_n=cv.n, target_ell=ell
    )


def even_adjust(
    cv: CurveL,
    basis: TorsionBasis,
    n: int,
    ell: int,
    mw_gens: list,
    prime_bound: int,
    mode: str = "A",
) -> dict:
    """Even-level claims via the doubling trick.

    Runs the whole construction one level up (at 2n, targeting symbol
    order 2*ell) and claims period n, index n*ell for the doubled class.
    Doubling both kills the two-torsion ambiguity of even-level symbol
    readings and turns the order-2*ell raw invariant into an exact
    order-ell one.  Only ell in {1, 2} needs this: targets divisible by
    4 are immune to the ambiguity and stay with direct mode B.  The
    sieve runs at level 2n with target level n, below prime_bound."""
    return certify(
        cv, basis, mw_gens, prime_bound, mode=mode, doubled=True, target_n=n, target_ell=ell
    )


# =====================================================================
# Composition
# =====================================================================


def _leaf_digests(cert: dict, at: str) -> list:
    """The input digests of the prime-power certificates in cert, the
    certificate at path at; errors name the missing or mistyped field."""
    if read_field(cert, "kind", at) == "prime-power":
        return [read_field(cert, "inputs.digest", at, str)]
    parts = read_field(cert, "parts", at, list)
    return [d for i, part in enumerate(parts) for d in _leaf_digests(part, _at(at, "parts[%d]" % i))]


def _claims(cert: dict, at: str) -> tuple:
    """(period, index, places) from the summary of the certificate at at."""
    sm = read_field(cert, "summary", at, dict)
    at = _at(at, "summary")
    p, i = (read_positive(read_field(sm, k, at), _at(at, k)) for k in ("period", "index"))
    return p, i, read_field(sm, "places", at, list)


def compose_coprime(left: dict, right: dict, allow_different_jacobians: bool = False) -> dict:
    """Combine certificates with coprime periods multiplicatively.

    The parts must concern the same curve (matching input digests); the
    flag lets callers combine data across jacobians explicitly, which is
    recorded in the result.  A malformed part raises InputError naming
    the field, as parts[0] or parts[1] of the composite."""
    for side, name in ((left, "left"), (right, "right")):
        if not isinstance(side, dict) or side.get("kind") not in ("prime-power", "composite"):
            raise InputError("%s input is not a certificate" % name)
    p1, i1, places1 = _claims(left, "parts[0]")
    p2, i2, places2 = _claims(right, "parts[1]")
    if gcd(p1, p2) != 1:
        raise InputError(
            "periods %d and %d share a factor" % (p1, p2),
            "coprimality",
            "parts[0].summary.period",
            "parts[1].summary.period",
        )
    digests = set(_leaf_digests(left, "parts[0]")) | set(_leaf_digests(right, "parts[1]"))
    match = len(digests) == 1
    if not match and not allow_different_jacobians:
        raise InputError(
            "certificates concern different curves; pass --allow-different-jacobians "
            "to combine them anyway"
        )
    period, index = p1 * p2, i1 * i2
    if not lichtenbaum_check(period, index):
        raise LemmaFailure("composed claims fail the duality bound", "lichtenbaum_ok")
    return {
        "schema": SCHEMA,
        "kind": "composite",
        "parts": [left, right],
        "coprimality": {"left_period": _s(p1), "right_period": _s(p2), "gcd": "1"},
        "jacobians_match": match,
        "summary": {
            "period": _s(period),
            "index": _s(index),
            "places": places1 + places2,
        },
        "lichtenbaum_ok": True,
    }


# =====================================================================
# Exact JSON: one reader for run configurations and certificates
# =====================================================================

# A reader accepts every exact spelling of a value: a JSON integer or a
# decimal string, surrounding space allowed, and for cyclotomic values a
# rational or a short coordinate list.  verify needs no stricter reader:
# the derived certificate writes each input it read back canonically, and
# the diff rejects any other spelling at its field.

# matched whole, ASCII digits only (\d takes every Unicode digit)
_INT_RE = re.compile(r"-?[0-9]+")
_COEFF_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")
_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _at(path: str, rel: str) -> str:
    """The path of rel inside the object at path; "certificate" names the
    root of a certificate."""
    if not rel:
        return path or "certificate"
    if not path:
        return rel
    return path + rel if rel.startswith("[") else "%s.%s" % (path, rel)


def _show(value) -> str:
    try:
        text = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):  # a Python key or value JSON text cannot spell
        text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def read_field(obj: dict, rel: str, at: str = "", kind=None):
    """The value at the dotted path rel below the object at path at, of
    the given kind when one is given; errors name the innermost field."""
    for key in rel.split("."):
        if not isinstance(obj, dict):
            raise InputError("expected an object", at)
        at = _at(at, key)
        if key not in obj:
            raise InputError("missing field", at)
        obj = obj[key]
    if kind is not None and not isinstance(obj, kind):
        raise InputError("expected %s" % _KINDS[kind], at)
    return obj


def _exact(value, pattern, convert, path: str, expected: str):
    """A JSON integer, or convert of a string that matches pattern once
    stripped."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and pattern.fullmatch(value.strip()):
        try:
            return convert(value.strip())
        except ValueError as e:  # past the interpreter's digit limit
            raise InputError(str(e), path)
    raise InputError("expected %s, found %s" % (expected, _show(value)), path)


def read_int(value, path: str) -> int:
    return _exact(value, _INT_RE, int, path, "an exact integer")


def read_positive(value, path: str) -> int:
    k = read_int(value, path)
    if k < 1:
        raise InputError("expected a positive integer, found %d" % k, path)
    return k


def _rational(text: str):
    """A matched coordinate: an int, or a Fraction for "a/b"."""
    num, slash, den = text.partition("/")
    return Fraction(int(num), int(den)) if slash else int(num)


def read_elem(level: int, value, path: str) -> CycloElem:
    """A rational, or at most the degree's coordinates in the power basis,
    the missing ones zero."""
    deg = context(level).degree
    if isinstance(value, list) and 1 <= len(value) <= deg:
        entries = [("%s[%d]" % (path, i), c) for i, c in enumerate(value)]
    elif isinstance(value, (int, str)):
        entries = [(path, value)]
    else:
        raise InputError("expected a rational or at most %d exact coordinates" % deg, path)
    expected = 'an exact rational such as "-3/2"'
    coeffs = [_exact(c, _COEFF_RE, _rational, at, expected) for at, c in entries]
    return CycloElem(level, coeffs)


def _read_point(level: int, value, path: str) -> LPoint:
    if value == "infinity":
        return None
    if isinstance(value, dict) and set(value) == {"x", "y"}:
        return read_elem(level, value["x"], path + ".x"), read_elem(level, value["y"], path + ".y")
    if isinstance(value, list) and len(value) == 2:
        return read_elem(level, value[0], path + "[0]"), read_elem(level, value[1], path + "[1]")
    raise InputError('expected a point ({x, y}, [x, y] or "infinity")', path)


def _read_fp_point(value, path: str):
    if value == "infinity":
        return None
    if isinstance(value, list) and len(value) == 2:
        return read_int(value[0], path + "[0]"), read_int(value[1], path + "[1]")
    raise InputError('expected a residue point ([x, y] or "infinity")', path)


def read_curve(block: dict, at: str, shown: str) -> tuple:
    """(curve, torsion basis, Mordell-Weil generators) of the curve block
    at path at, which messages show as shown: a level that can certify
    (NORM_LEVELS), the model at it, the basis and the generators checked
    on it, and the declared stable subgroup order against the level."""
    p = at + "."
    level = read_int(read_field(block, "level", at), p + "level")
    if level not in NORM_LEVELS:
        raise InputError("only levels %s can certify, found %d" % (NORM_LEVELS, level), p + "level")
    coeffs = read_field(block, "coefficients", at, list)
    if len(coeffs) != 5:
        raise InputError("expected five model coefficients", p + "coefficients")
    parsed = [read_elem(level, c, "%scoefficients[%d]" % (p, i)) for i, c in enumerate(coeffs)]
    try:
        cv = curve_over(level, parsed)
    except CurveError as e:
        raise InputError(str(e), p + "coefficients")
    given = "on the curve given by %s.coefficients" % shown
    # a failed point check also names the model and the level its coordinates are read at
    model = (p + "coefficients", p + "level")
    S, T = (
        _read_point(level, read_field(block, "torsion_basis." + k, at), p + "torsion_basis." + k)
        for k in "ST"
    )
    try:
        basis = make_basis(cv, level, S, T)
    except (ValueError, ArithmeticError) as e:
        # make_basis checks the points on the curve first; name the one off it
        for k, P in (("S", S), ("T", T)):
            if not cv.on_curve(P):
                raise InputError("point is not " + given, p + "torsion_basis." + k, *model)
        raise InputError("%s, %s" % (e, given), p + "torsion_basis", *model)
    gens = []
    for i, raw in enumerate(read_field(block, "mw_generators", at, list)):
        g = _read_point(level, raw, "%smw_generators[%d]" % (p, i))
        if not cv.on_curve(g):
            raise InputError("point is not " + given, "%smw_generators[%d]" % (p, i), *model)
        gens.append(g)
    order = read_int(read_field(block, "stable_subgroup_order", at), p + "stable_subgroup_order")
    if order != level:
        raise InputError(
            "declared stable subgroup order %d differs from the level %d" % (order, level),
            p + "stable_subgroup_order",
        )
    return cv, basis, gens


# =====================================================================
# Verification: read the inputs, re-derive, diff
# =====================================================================


def _field_set(obj: dict, expected, rel: str):
    """(message, paths) of a field-set mismatch of the object at rel: its
    own path, then one per missing or unexpected key (one that is not a
    string last); None if they agree."""
    missing = sorted(set(expected) - set(obj))
    extra = sorted(set(obj) - set(expected), key=lambda k: (not isinstance(k, str), str(k)))
    if not (missing or extra):
        return None
    msg = "field set mismatch: missing %r, unexpected %r" % (missing, extra)
    return msg, [rel] + [_at(rel, "%s" % key) for key in missing + extra]


def _rederive(cert: dict, path: str) -> dict:
    """Read the inputs the prime-power certificate at path records and
    derive the certificate they determine."""
    n = read_positive(read_field(cert, "context.n"), "context.n")
    ell = read_positive(read_field(cert, "context.ell"), "context.ell")
    mode = read_field(cert, "context.mode")
    kind = read_field(cert, "route.kind")
    if kind not in ("direct", "doubled"):
        raise InputError("unknown route kind %r" % (kind,), "route.kind")

    curve = read_field(cert, "inputs.curve", kind=dict)
    stored = read_field(cert, "inputs.digest")
    try:
        digest = content_digest(curve)
    except TypeError:  # a Python key or value JSON text cannot spell, named below
        digest = stored
    if digest != stored:
        raise InputError(
            "stored digest does not match the curve block", "inputs.digest", "inputs.curve"
        )
    cv, basis, gens = read_curve(curve, "inputs.curve", _at(path, "inputs.curve"))
    # construct records the basis make_basis pins, so a basis that
    # make_basis moves again was recorded unpinned
    at = "inputs.curve.torsion_basis"
    recorded = [_read_point(cv.n, read_field(curve, "torsion_basis." + k), at + "." + k)
                for k in "ST"]
    if recorded != [basis.S, basis.T]:
        raise InputError("the basis is not normalized: the Weil pairing of S and T must be "
                         "zeta, and at level 2 S and T the points of order 2 of larger x, "
                         "ascending", at)

    pi = read_elem(cv.n, read_field(cert, "pair.first.pi"), "pair.first.pi")
    pi_prime = read_elem(cv.n, read_field(cert, "pair.second.pi"), "pair.second.pi")
    witnesses = []
    for i, entry in enumerate(read_field(cert, _WITNESSES, kind=list)):
        wp = "%s[%d]" % (_WITNESSES, i)
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError("expected [index, point]", wp)
        witnesses.append((i, _read_fp_point(entry[1], wp + "[1]")))

    route = _preconditions(cv, basis, gens, mode=mode, doubled=kind == "doubled", target_n=n,
                           target_ell=ell)
    return _certificate(cv, basis, gens, pi, pi_prime, tuple(witnesses), route,
                        recorded=(curve, digest))


def _same(recorded, derived) -> bool:
    """Whether _diff would find no difference: the same JSON types all the
    way down (so true and 1 differ, and so do "1" and 1), the same key
    sets and list lengths, and equal leaves.  It builds no paths.  The
    derived containers are plain dicts and lists, and the exact type check
    comes first, so the dispatch on type(derived) misses none.  An object
    is the same as itself: a composite's derived parts are the recorded
    ones, already checked."""
    if recorded is derived:
        return True
    kind = type(derived)
    if type(recorded) is not kind:
        return False
    if kind is dict:
        return recorded.keys() == derived.keys() and all(
            map(_same, map(recorded.__getitem__, derived), derived.values())
        )
    if kind is list:
        return len(recorded) == len(derived) and all(map(_same, recorded, derived))
    return recorded == derived


def _diff(recorded, derived, rel: str, path: str, trace: list, sections: dict):
    """Append a trace line wherever the recorded certificate at path
    differs from the derived one below rel.  Values of different JSON
    types differ, so true and 1 do not match.  A value line also names the
    inputs of its section in sections.  The walk descends only into the
    children that _same finds different: a subtree it finds the same
    would add no line, so the lines and their order are those of a walk
    over every node."""
    if isinstance(recorded, dict) and isinstance(derived, dict):
        mismatch = _field_set(recorded, derived, rel)
        if mismatch:
            trace.extend((_at(path, r), mismatch[0]) for r in mismatch[1])
        for key in sorted(set(derived) & set(recorded)):
            if not _same(recorded[key], derived[key]):
                _diff(recorded[key], derived[key], _at(rel, key), path, trace, sections)
    elif (
        isinstance(recorded, list)
        and isinstance(derived, list)
        and len(recorded) == len(derived)
    ):
        for i, (r, d) in enumerate(zip(recorded, derived)):
            if not _same(r, d):
                _diff(r, d, _at(rel, "[%d]" % i), path, trace, sections)
    elif type(recorded) is not type(derived) or recorded != derived:
        msg = "recorded %s, recomputed %s" % (_show(recorded), _show(derived))
        prefix, reads = sections.get(rel.split(".")[0], ("", ()))
        if reads:
            msg += " from " + ", ".join(_at(path, r) for r in reads)
        trace.append((_at(path, rel), prefix + msg))


def _check(cert, path: str, trace: list):
    """Append (path, message) to trace for every failure in the
    certificate at path (empty for the root); never raises."""
    try:
        if not isinstance(cert, dict):
            raise InputError("certificate must be an object", "")
        kind = cert.get("kind")
        if kind == "prime-power":
            derived = _rederive(cert, path)
        elif kind == "composite":
            parts = read_field(cert, "parts", kind=list)
            if len(parts) != 2:
                raise InputError("expected exactly two sub-certificates", "parts")
            mark = len(trace)
            for i, part in enumerate(parts):
                _check(part, _at(path, "parts[%d]" % i), trace)
            if len(trace) > mark:
                return
            derived = compose_coprime(*parts, allow_different_jacobians=True)
        else:
            raise InputError("unknown certificate kind %r" % (kind,), "kind")
        if not _same(cert, derived):
            _diff(cert, derived, "", path, trace, _SECTIONS if kind == "prime-power" else {})
    except (InputError, LemmaFailure) as e:
        trace.extend((_at(path, rel), str(e)) for rel in e.paths or ("",))
    except Exception as e:  # any certificate gets a verdict, never a traceback
        trace.append((_at(path, ""), "check failed: %s: %s" % (type(e).__name__, e)))


def verify_certificate(cert, path: str = "") -> tuple:
    """(ok, trace).  Parses the inputs the certificate records, derives
    the certificate they determine with the constructor's own derivation,
    and compares field by field.  The trace lists (path, message) pairs
    for everything that failed, named as inside a certificate at path
    (the root when empty)."""
    trace = []
    _check(cert, path, trace)
    return not trace, trace
