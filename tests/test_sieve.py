"""Sieve tests: frozen first hits for the three fixture curves plus
re-validation of every condition from the raw outputs alone."""

import random
import tracemalloc
from types import SimpleNamespace

import pytest

from period_index.cyclo import (
    SUPPORTED_LEVELS,
    ContextError,
    CycloElem,
    context,
    field_norm,
    galois_apply,
    is_probable_prime,
    is_totally_positive,
    reduce_at,
)
from period_index import ecq, sieve
from period_index.construct import LemmaFailure, certify_mode_A, even_adjust
from period_index.kummer import KummerClass, make_basis, twisted_norm
from period_index.ecq import curve_over, point_over, reduce_curve, reduce_point
from period_index.localfield import (
    Place,
    distinguished_place,
    is_one_mod,
    places_over,
    residue_power_order,
    wild_modulus,
)
from period_index.sieve import (
    SieveExhausted,
    SieveStats,
    attach_generator,
    divisibility_data,
    find_pair,
    residue_order_profile,
    split_prime_stream,
)
from norm_oracle import pinned_generator, solve_norm_equation
from test_ecq import _count_additions

E_MINUS_X = [0, 0, 0, -1, 0]    # y^2 = x^3 - x
E_CUBE = [0, 0, 1, 0, 0]        # y^2 + y = x^3
E_PYTH = [0, 7, 0, -144, 0]     # y^2 = x(x - 9)(x + 16)


def _fix2():
    cv = curve_over(2, E_MINUS_X)
    return cv, [point_over(2, (0, 0)), point_over(2, (1, 0))]


def _fix3():
    cv = curve_over(3, E_CUBE)
    return cv, [point_over(3, (0, 0))]


def _fix4():
    cv = curve_over(4, E_PYTH)
    return cv, [point_over(4, (24, 120)), point_over(4, (0, 0))]


def _basis(n):
    """The torsion basis (S, T) of E[n] for the fixture curve at level n."""
    i = CycloElem.zeta(4)
    return {
        2: (point_over(2, (0, 0)), point_over(2, (1, 0))),
        3: (point_over(3, (0, 0)), (CycloElem.rational(3, -1), CycloElem.zeta(3))),
        4: (point_over(4, (24, 120)), (12 * i, 36 - 48 * i)),
    }[n]


def test_split_prime_stream():
    cv2, _ = _fix2()
    assert list(split_prime_stream(cv2, 100)) == [17, 41, 73, 89, 97]
    cv3, _ = _fix3()
    first = list(split_prime_stream(cv3, 600))
    assert first == [109, 163, 271, 379, 433, 487, 541]
    for p in first:
        assert p % wild_modulus(3) == 1 and is_probable_prime(p)


def _stream_by_trial(cv, bound):
    """split_prime_stream as it was defined before the sieve: every member
    1 + m*k <= bound prime to bad_modulus that is_probable_prime accepts."""
    m = wild_modulus(cv.n)
    return [
        p for p in range(1 + m, bound + 1, m)
        if cv.bad_modulus % p and is_probable_prime(p)
    ]


def _stream_models():
    """The fixture curves at m = 8, 27 and 32, and stand-ins whose bad
    modulus holds primes of the progression."""
    yield _fix2()[0]
    yield _fix3()[0]
    yield _fix4()[0]
    yield SimpleNamespace(n=2, bad_modulus=2 * 17 * 41 * 3761)
    yield SimpleNamespace(n=3, bad_modulus=3 * 109 * 163 * 199_999)
    yield SimpleNamespace(n=4, bad_modulus=4 * 97 * 193 * 130_817)


def _stream_bounds(m, top):
    """A grid to top, the bounds below the first member, and the bounds
    around the ends of the segments (m * 2^j, a multiple of m) and of the
    members next to them."""
    bounds = {*range(-2, 3 * m), *range(0, top + 1, 2_003)}
    for j in range(top.bit_length()):
        bounds.update(m * 2 ** j + d for d in (-m, 1 - m, -1, 0, 1, 2, m, m + 1))
    return sorted(b for b in bounds if b <= top)


def test_split_prime_stream_matches_trial_division(monkeypatch):
    # below _SIEVE_LIMIT^2 the sieve proves each prime it yields without
    # one is_probable_prime call
    calls = [0]

    def counted(p):
        calls[0] += 1
        return is_probable_prime(p)

    monkeypatch.setattr(sieve, "is_probable_prime", counted)
    for cv in _stream_models():
        full = _stream_by_trial(cv, 200_000)
        for bound in _stream_bounds(wild_modulus(cv.n), 200_000):
            got = list(split_prime_stream(cv, bound))
            assert got == [p for p in full if p <= bound], (cv.n, bound)
    assert calls[0] == 0


@pytest.mark.parametrize("limit", [2, 3, 5, 8, 13])
def test_split_prime_stream_proves_survivors_past_the_sieve(monkeypatch, limit):
    # with a small _SIEVE_LIMIT the segments hold at most limit members,
    # only the primes below it strike, and every survivor at or above its
    # square goes to is_probable_prime
    calls = []

    def counted(p):
        calls.append(p)
        return is_probable_prime(p)

    monkeypatch.setattr(sieve, "_SIEVE_LIMIT", limit)
    monkeypatch.setattr(sieve, "is_probable_prime", counted)
    for cv in _stream_models():
        full = _stream_by_trial(cv, 20_000)
        for bound in _stream_bounds(wild_modulus(cv.n), 20_000):
            assert list(split_prime_stream(cv, bound)) == [p for p in full if p <= bound]
    assert calls and min(calls) >= limit * limit


def test_attach_generator_frozen():
    assert attach_generator(2, 17) == CycloElem.rational(2, 17)
    assert attach_generator(3, 757) == CycloElem(3, [28, 27])
    assert attach_generator(4, 13441) == CycloElem(4, [65, -96])
    assert attach_generator(4, 25601) == CycloElem(4, [1, 160])
    # 97 = 9^2 + 4^2 has no unit multiple congruent to 1 mod 32
    assert attach_generator(4, 97) is None


def _torsion_units(n):
    """All roots of unity in Q(zeta_n) as CycloElems: +-zeta^k."""
    out = []
    for k in range(n):
        z = CycloElem.zeta(n, k)
        out.extend([z, -z])
    return out


def _multiplication_rows(u):
    """The integer matrix of x -> u*x on the power basis, by rows."""
    d = context(u.n).degree
    columns = [(u * CycloElem.zeta(u.n, j)).num for j in range(d)]
    return tuple(zip(*columns))


def _ref_attach_generator(n, p, place):
    """attach_generator as it was with the Galois action and the unit
    matrices: every Galois conjugate sigma_t(x0) in the order of t, kept
    when it lies in the place, times each root of unity of _torsion_units
    through its multiplication rows.  The reference for
    test_attach_generator_matches_the_product_loop."""
    x0 = solve_norm_equation(place)
    m = wild_modulus(n)
    for t in context(n).units:
        xt = galois_apply(x0, t)
        if reduce_at(xt, p, place.omega):
            continue
        for rows in map(_multiplication_rows, _torsion_units(n)):
            y = [sum(r * c for r, c in zip(row, xt.num)) for row in rows]
            pi = CycloElem(n, y)
            if is_one_mod(pi, m) and is_totally_positive(pi):
                return pi
    return None


def test_attach_generator_matches_the_product_loop():
    # every split prime below 50,000 at each level, as the scan attaches
    # it (the place passed in): the fixture streams and the primes off
    # them that the acceptance gate's generator pool reaches
    found = {2: 0, 3: 0, 4: 0}
    for n in found:
        for p in range(n + 1, 50_000, n):
            if p % 2 == 0 or not is_probable_prime(p):
                continue
            got = attach_generator(n, p)
            assert got == _ref_attach_generator(n, p, distinguished_place(n, p)), (n, p)
            if n == 2 and p % 8 == 7:
                assert got is None, p  # -p is the unit multiple ≡ 1 mod 8
            found[n] += got is not None
    assert found == {2: 1257, 3: 33, 4: 17}


def test_attach_generator_walks_one_shell(monkeypatch):
    # one shell (p - 1, p] per prime, and only the elements of norm p in
    # it: none at a prime off the progression 1 mod m, two (pi and its
    # conjugate) at a prime that carries a generator
    shells = []
    walk = sieve.norm_shell

    def listed(n, m, lo, hi):
        out = list(walk(n, m, lo, hi))
        shells.append((lo, hi, out))
        return out

    monkeypatch.setattr(sieve, "norm_shell", listed)
    for n in (2, 3, 4):
        for p in range(n + 1, 5_000, n):
            if p % 2 == 0 or not is_probable_prime(p):
                continue
            shells.clear()
            pi = attach_generator(n, p)
            [(lo, hi, out)] = shells
            assert (lo, hi) == (p - 1, p) and all(nrm == p for nrm, _ in out), (n, p)
            assert len(out) == (pi is not None) * (1 if n == 2 else 2), (n, p)


def test_attach_generator_needs_a_norm_level():
    with pytest.raises(ContextError):
        attach_generator(5, 11)


def test_attach_generator_properties():
    for n, p in ((2, 41), (3, 757), (4, 13441), (4, 25601)):
        pi = attach_generator(n, p)
        assert abs(field_norm(pi)) == p
        assert is_one_mod(pi, wild_modulus(n))
        assert is_totally_positive(pi)
        v = distinguished_place(n, p)
        assert reduce_at(pi, v.p, v.omega) % p == 0


def test_divisibility_data_frozen():
    cv2, gens2 = _fix2()
    v = distinguished_place(2, 17)
    assert divisibility_data(cv2, v, gens2, 2) == ((0, (4, 3)), (1, (12, 13)))
    cv3, gens3 = _fix3()
    assert divisibility_data(cv3, distinguished_place(3, 7), gens3, 3) == ((0, None),)
    assert divisibility_data(cv3, distinguished_place(3, 19), gens3, 3) == (
        (0, (15, 3)),
    )


def test_divisibility_witnesses_multiply_back():
    cv2, gens2 = _fix2()
    v = distinguished_place(2, 17)
    cfp = reduce_curve(cv2, v)
    for idx, w in divisibility_data(cv2, v, gens2, 2):
        assert cfp.mul(2, w) == reduce_point(cv2, gens2[idx], v)


def test_divisibility_data_addition_budget(monkeypatch):
    # taking the order of every point of E(F_p) costs 1,259,328 additions
    # here; one lam*P = O test per pair {P, -P} costs 135,088, and the
    # full walk behind it 113,562; stopping the walk at the first exponent
    # it can prove costs 11,502; testing the complement in order-q
    # subgroups and finding the witnesses by baby-step giant-step, 4,241
    calls = _count_additions(monkeypatch)
    cv4, gens4 = _fix4()
    got = divisibility_data(cv4, distinguished_place(4, 13441), gens4, 2)
    assert got == ((0, (2117, 2573)), (1, (1672, 6652)))
    assert calls[0] <= 4_241


def test_divisibility_data_records_the_witness_of_o(monkeypatch):
    # a generator that reduces to O has the witness O, written None,
    # recorded without a search
    searched = []
    search = sieve.divisibility_witness

    def logged(cfp, st, n, P):
        searched.append(P)
        return search(cfp, st, n, P)

    monkeypatch.setattr(sieve, "divisibility_witness", logged)
    cv4, gens4 = _fix4()
    got = divisibility_data(cv4, distinguished_place(4, 13441), [None] + gens4, 2)
    assert got == ((0, None), (1, (2117, 2573)), (2, (1672, 6652)))
    assert len(searched) == 2 and None not in searched


def test_divisibility_data_lists_no_points():
    # listing E(F_p) (a square-root list per residue, then every point)
    # peaked at 0.33 MB here; walking the points without a list and
    # stopping the witness search at its hit peaked at 0.08 MB, and
    # holding order-q subgroups instead of <W> peaks at 0.02 MB
    cv4, gens4 = _fix4()
    place = distinguished_place(4, 2113)
    tracemalloc.start()
    try:
        divisibility_data(cv4, place, gens4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_residue_order_profile_frozen():
    v17 = distinguished_place(2, 17)
    assert residue_order_profile(CycloElem.rational(2, 41), v17) == (2, ())
    v757 = distinguished_place(3, 757)
    assert residue_order_profile(CycloElem(3, [82, 135]), v757) == (3, ((2, 1),))
    v13441 = distinguished_place(4, 13441)
    assert residue_order_profile(CycloElem(4, [1, 160]), v13441) == (4, ((3, 1),))


def _ref_residue_order_profile(pi2, place):
    """residue_order_profile through the Galois action: each proper
    conjugate sigma_t(pi2) built and reduced at omega."""
    n, p = place.n, place.p
    main = residue_power_order(reduce_at(pi2, p, place.omega), n, p)
    conj = []
    for t in context(n).units[1:]:
        rt = reduce_at(galois_apply(pi2, t), p, place.omega)
        conj.append((t, residue_power_order(rt, n, p)))
    return main, tuple(conj)


def test_residue_order_profile_matches_the_galois_action():
    # seeded elements with small denominators at every place over the
    # first four split primes of each supported level
    rng = random.Random(1212)
    cases = 0
    for n in SUPPORTED_LEVELS:
        d = context(n).degree
        primes = [p for p in range(n + 1, 400, n) if is_probable_prime(p)][:4]
        for p in primes:
            for place in places_over(n, p):
                for _ in range(40):
                    den = rng.choice([q for q in range(1, 8) if q % p])
                    x = CycloElem(n, [rng.randint(-50, 50) for _ in range(d)]) / den
                    if x.is_zero() or field_norm(x).numerator % p == 0:
                        continue  # some conjugate of x vanishes at the place
                    assert residue_order_profile(x, place) == _ref_residue_order_profile(x, place)
                    cases += 1
    assert cases > 2_500


def test_find_v_frozen():
    cv2, gens2 = _fix2()
    pair = find_pair(cv2, 10**4, gens2, 2, _basis(2))
    assert (pair.first.p, pair.first.pi, pair.witnesses) == (
        17,
        CycloElem.rational(2, 17),
        ((0, (4, 3)), (1, (12, 13))),
    )
    cv3, gens3 = _fix3()
    pair = find_pair(cv3, 2 * 10**4, gens3, 3, _basis(3))
    assert (pair.first.p, pair.first.pi, pair.witnesses) == (
        757,
        CycloElem(3, [28, 27]),
        ((0, (570, 175)),),
    )
    cv4, gens4 = _fix4()
    pair = find_pair(cv4, 10**5, gens4, 2, _basis(4))
    assert (pair.first.p, pair.first.pi) == (13441, CycloElem(4, [65, -96]))
    assert pair.witnesses == ((0, (2117, 2573)), (1, (1672, 6652)))


def test_find_vprime_frozen():
    cv2, gens2 = _fix2()
    pair = find_pair(cv2, 10**4, gens2, 2, _basis(2))
    assert (pair.second.p, pair.second.pi) == (41, CycloElem.rational(2, 41))
    assert residue_order_profile(pair.second.pi, pair.first.place) == (2, ())
    cv3, gens3 = _fix3()
    pair = find_pair(cv3, 2 * 10**4, gens3, 3, _basis(3))
    assert (pair.second.p, pair.second.pi) == (13879, CycloElem(3, [82, 135]))
    assert residue_order_profile(pair.second.pi, pair.first.place) == (3, ((2, 1),))
    # one scan: each prime up to the partner is counted once
    assert pair.stats.summary() == (
        "scanned=92 no_generator=83 generators=9 divisibility=1/1 "
        "pairs_tried=8 order_rejected=3 conjugate_rejected=4"
    )
    cv4, gens4 = _fix4()
    pair = find_pair(cv4, 10**5, gens4, 2, _basis(4))
    assert (pair.second.p, pair.second.pi) == (25601, CycloElem(4, [1, 160]))


def _count_group_structures(monkeypatch):
    calls = [0]
    original = sieve.group_structure

    def counted(cfp):
        calls[0] += 1
        return original(cfp)

    monkeypatch.setattr(sieve, "group_structure", counted)
    return calls


def test_find_pair_builds_the_group_only_at_the_accepted_prime(monkeypatch):
    # the pairing rejects 2113 to 13121; E(F_p)'s structure is built once,
    # at 13441, and the histogram still counts every prime checked
    calls = _count_group_structures(monkeypatch)
    cv4, gens4 = _fix4()
    pair = find_pair(cv4, 10**5, gens4, 2, _basis(4))
    assert pair.first.p == 13441 and calls[0] == 1
    assert "divisibility=1/6" in pair.stats.summary()


def test_doubled_construct_builds_one_group_structure(monkeypatch):
    calls = _count_group_structures(monkeypatch)
    cv4, gens4 = _fix4()
    S, T = _basis(4)
    even_adjust(cv4, make_basis(cv4, 4, S, T), 2, 2, gens4, 10**5)
    assert calls[0] == 1


def test_doubled_find_pair_builds_a_place_only_at_a_generator(monkeypatch):
    # a prime with no entry in the table is rejected by a dict lookup: 9
    # places for the 9 primes of 176 that carry a generator (176 when the
    # scan built the distinguished place of each prime to solve its norm
    # equation there)
    places = []
    init = Place.__init__

    def counted(self, n, p, omega):
        places.append(p)
        init(self, n, p, omega)

    monkeypatch.setattr(Place, "__init__", counted)
    cv4, gens4 = _fix4()
    pair = find_pair(cv4, 10**5, gens4, 2, _basis(4))
    monkeypatch.undo()
    assert pair.stats.scanned == 176 and pair.stats.no_generator == 167
    assert len(places) == len(set(places)) == 9


def test_the_lattice_walk_matches_the_lagrange_oracle():
    # every prime ≡ 1 mod m below 200,000 at each level: the scan's
    # candidates (the fixture curves are bad only at primes off the
    # progression) against the norm equation solved at each prime
    bound = 200_000
    found = {}
    for n, fix in ((2, _fix2), (3, _fix3), (4, _fix4)):
        cv, _ = fix()
        scanned = {c.p: c for c in sieve._candidates(cv, bound, SieveStats())}
        m = wild_modulus(n)
        found[n] = 0
        for p in range(1 + m, bound, m):
            if not is_probable_prime(p):
                continue
            pi = pinned_generator(n, p)
            hit = scanned.pop(p, None)
            assert (hit and hit.pi) == pi, (n, p)
            if hit:
                assert hit.place == distinguished_place(n, p), (n, p)
                assert attach_generator(n, p) == hit.pi, (n, p)
                found[n] += 1
        assert scanned == {}, n
    assert found == {2: 4_466, 3: 111, 4: 67}


def test_doubled_find_pair_multiplication_budget(monkeypatch):
    # 3,446 CycloElem products when every unit multiple of both Galois
    # conjugates was a product and the norm equation checked each hit by
    # its norm
    calls = [0]
    mul = CycloElem.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    cv4, gens4 = _fix4()
    basis = _basis(4)
    monkeypatch.setattr(CycloElem, "__mul__", counted)
    find_pair(cv4, 10**5, gens4, 2, basis)
    assert calls[0] <= 600


def test_find_pair_takes_a_partner_passed_before_the_first_member():
    # y^2 = x(x + 6)(x - 1): (8, 28) first divides by 2 at 113, and the
    # first candidate, 17, is the partner
    cv = curve_over(2, [0, 5, 0, -6, 0])
    basis = (point_over(2, (0, 0)), point_over(2, (-6, 0)))
    pair = find_pair(cv, 200, [point_over(2, (8, 28))], 2, basis)
    assert (pair.first.p, pair.second.p) == (113, 17)
    assert pair.witnesses == ((0, (18, 15)),)
    assert pair.stats.summary() == (
        "scanned=6 no_generator=0 generators=6 divisibility=1/6 "
        "pairs_tried=1 order_rejected=0 conjugate_rejected=0"
    )


def test_find_pair_fails_hard_when_the_pairing_and_the_group_disagree(monkeypatch):
    # a generator the pairing accepts but the group structure finds no
    # witness for is recorded without one, and the certificate's witness
    # check names it
    monkeypatch.setattr(sieve, "divisibility_witness", lambda *args: None)
    cv2, gens2 = _fix2()
    basis = make_basis(cv2, 2, *_basis(2))
    with pytest.raises(LemmaFailure) as e:
        certify_mode_A(cv2, basis, 1, gens2, 10**4)
    assert e.value.paths[0] == "pair.first.conditions.generators_divisible.witnesses[0]"


def test_find_pair_factors_no_discriminant(monkeypatch):
    # y^2 = x(x - b)(x + a) for 17-digit primes a, b: factoring Delta,
    # 16 a^2 b^2 (a + b)^2, does not end in a minute
    a, b = 10000000000000061, 30000000000000029
    factor = ecq.factorint

    def small_only(m):
        assert abs(m) < 10**12, "factoring %d" % m
        return factor(m)

    monkeypatch.setattr(ecq, "factorint", small_only)
    cv = curve_over(2, [0, b - a, 0, -a * b, 0])
    basis = (point_over(2, (0, 0)), point_over(2, (b, 0)))
    pair = find_pair(cv, 1000, [], 2, basis)
    assert (pair.first.p, pair.second.p) == (17, 41)


def test_find_pair_conditions_revalidate():
    cv3, gens3 = _fix3()
    pair = find_pair(cv3, 2 * 10**4, gens3, 3, _basis(3))
    for member in (pair.first, pair.second):
        assert is_probable_prime(member.p)
        assert abs(field_norm(member.pi)) == member.p
        assert is_one_mod(member.pi, wild_modulus(3))
    v = pair.first.place
    r = reduce_at(pair.second.pi, v.p, v.omega)
    assert residue_power_order(r, 3, v.p) == 3
    assert pair.first.p != pair.second.p
    cfp = reduce_curve(cv3, v)
    for idx, w in pair.witnesses:
        assert cfp.mul(3, w) == reduce_point(cv3, gens3[idx], v)


def test_sieve_exhausted_histogram():
    cv3, gens3 = _fix3()
    with pytest.raises(SieveExhausted) as e:
        find_pair(cv3, 700, gens3, 3, _basis(3))
    assert e.value.stats.scanned == 7
    assert e.value.stats.no_generator == 7
    assert "scanned=7" in str(e.value)


def test_sieve_exhausted_partner_histogram_covers_the_whole_search():
    # the partner lies past 10^4: the histogram counts the first member's
    # pairing test and every prime once (a second scan counted 7
    # generators and no pairing test)
    cv3, gens3 = _fix3()
    with pytest.raises(SieveExhausted) as e:
        find_pair(cv3, 10**4, gens3, 3, _basis(3))
    assert str(e.value) == (
        "no admissible partner below 10000 (scanned=70 no_generator=62 generators=8 "
        "divisibility=1/1 pairs_tried=7 order_rejected=3 conjugate_rejected=4)"
    )


def test_sieve_stats_start_at_zero_and_count():
    stats = SieveStats()
    assert stats.summary() == (
        "scanned=0 no_generator=0 generators=0 divisibility=0/0 "
        "pairs_tried=0 order_rejected=0 conjugate_rejected=0"
    )
    stats.scanned += 3
    stats.no_generator += 1
    stats.divisibility_checked += 2
    assert stats.summary().startswith("scanned=3 no_generator=1 generators=2 divisibility=0/2 ")


@pytest.fixture(scope="module")
def records():
    """One of each immutable record, from the level-2 fixture's pair."""
    cv, gens = _fix2()
    pair = find_pair(cv, 10**4, gens, 2, _basis(2))
    first, second = pair.first, pair.second
    cfp = reduce_curve(cv, first.place)
    return {
        "CycloElem": first.pi,
        "Place": first.place,
        "CurveL": cv,
        "CurveFp": cfp,
        "GroupStructure": ecq.group_structure(cfp),
        "TorsionBasis": make_basis(cv, 2, *_basis(2)),
        "KummerClass": KummerClass(2, first.pi, second.pi),
        "NormFactors": twisted_norm({1: ((1, 0), (0, 1))}, first.pi, second.pi),
        "PrimeCandidate": first,
        "SievePair": pair,
    }


@pytest.mark.parametrize("name", [
    "CycloElem", "Place", "CurveL", "CurveFp", "GroupStructure", "TorsionBasis",
    "KummerClass", "NormFactors", "PrimeCandidate", "SievePair",
])
def test_every_record_refuses_assignment(records, name):
    record = records[name]
    assert type(record).__name__ == name
    for field in type(record).__slots__:
        before = getattr(record, field)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, None)
        assert getattr(record, field) is before
