import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from period_index import construct, cyclo
from period_index.cli import main
from period_index.cyclo import CycloElem
from period_index.ecq import curve_over, point_over
from period_index.kummer import make_basis
from period_index.construct import (
    _IDENTITY_REP,
    InputError,
    _class,
    _diff,
    _same,
    canonical_json,
    elem_coeffs,
    certify_mode_A,
    certify_mode_B,
    compose_coprime,
    content_digest,
    even_adjust,
    lichtenbaum_check,
    read_elem,
    sha256,
    verify_certificate,
)
from diff_oracle import full_diff
from test_acceptance import _leaf_paths, _set_path

BOUND = 10**5


def _cubic():
    cv = curve_over(3, [0, 0, 1, 0, 0])
    S = point_over(3, (0, 0))
    T = (CycloElem.rational(3, -1), CycloElem.zeta(3))
    return cv, make_basis(cv, 3, S, T), [S]


def _quadratic():
    # full 2-torsion rational: y^2 = x^3 - x
    cv = curve_over(2, [0, 0, 0, -1, 0])
    S, T = point_over(2, (0, 0)), point_over(2, (1, 0))
    return cv, make_basis(cv, 2, S, T), [S, T]


def _quartic():
    # rational 4-torsion point (24, 120) on y^2 = x^3 + 7x^2 - 144x
    cv = curve_over(4, [0, 7, 0, -144, 0])
    i = CycloElem.zeta(4)
    S = point_over(4, (24, 120))
    T = (12 * i, 36 - 48 * i)
    return cv, make_basis(cv, 4, S, T), [S, point_over(4, (0, 0))]


@pytest.fixture(scope="module")
def cert33():
    cv, basis, gens = _cubic()
    return certify_mode_B(cv, basis, 3, gens, BOUND)


@pytest.fixture(scope="module")
def cert31():
    cv, basis, gens = _cubic()
    return certify_mode_B(cv, basis, 1, gens, BOUND)


@pytest.fixture(scope="module")
def cert22(request):
    cv, basis, gens = _quartic()
    return even_adjust(cv, basis, 2, 2, gens, BOUND)


def _roundtrip(cert):
    return json.loads(canonical_json(cert))


# ------------------------------------------------------------ class seed


def _seed_pair(a, b, ell):
    """The seed pair the class section records for generators a, b."""
    seed = _class(_IDENTITY_REP, a, b, ell)[0]["seed_pair"]
    return seed["first"], seed["second"], seed["power_exponent"]


def test_class_seed_keeps_the_pair_at_full_target():
    a = CycloElem.rational(3, 4) + CycloElem.zeta(3)
    b = CycloElem.rational(3, 2) + 5 * CycloElem.zeta(3)
    assert _seed_pair(a, b, 3) == (elem_coeffs(a), elem_coeffs(b), "1")


def test_class_seed_powers_the_second_coordinate_at_target_one():
    a = CycloElem.rational(3, 4) + CycloElem.zeta(3)
    b = CycloElem.rational(3, 2) + 5 * CycloElem.zeta(3)
    assert _seed_pair(a, b, 1) == (elem_coeffs(a), elem_coeffs(b**3), "3")


def test_class_seed_at_an_intermediate_target():
    i = CycloElem.zeta(4)
    a = 3 + 2 * i
    b = 1 + 4 * i
    assert _seed_pair(a, b, 2) == (elem_coeffs(a), elem_coeffs(b * b), "2")


def test_direct_route_rejects_a_symbol_target_off_the_level():
    # _preconditions checks ell | n before the class seed pi'^(n/ell) is formed
    cv, basis, gens = _cubic()
    for certify in (certify_mode_A, certify_mode_B):
        for ell in (2, 0):
            with pytest.raises(InputError, match="does not divide the level 3"):
                certify(cv, basis, ell, gens, BOUND)


# ---------------------------------------------------------- lichtenbaum


def test_lichtenbaum_examples():
    assert lichtenbaum_check(2, 4)
    assert not lichtenbaum_check(3, 27)
    assert lichtenbaum_check(5, 5)
    assert lichtenbaum_check(1, 1)
    assert lichtenbaum_check(6, 36)
    assert not lichtenbaum_check(4, 6)


def test_lichtenbaum_rejects_nonpositive():
    with pytest.raises(InputError):
        lichtenbaum_check(0, 1)
    with pytest.raises(InputError):
        lichtenbaum_check(2, -4)


# ------------------------------------------------------------ direct runs


def test_cubic_full_target_claims(cert33):
    assert cert33["summary"] == {
        "period": "3",
        "index": "9",
        "places": ["757", "13879"],
    }
    assert cert33["context"]["claims_field"] == "rational"
    assert cert33["route"] == {
        "kind": "direct",
        "construction_level": "3",
        "symbol_exactness": "odd-level",
    }
    # one shift row per proper divisor of the target
    assert [r["ell_prime"] for r in cert33["index_lower"]["rows"]] == ["1"]


def test_cubic_trivial_target_claims(cert31):
    assert cert31["summary"]["period"] == "3"
    assert cert31["summary"]["index"] == "3"
    # order-one obstruction: nothing to rule out below the level itself
    assert cert31["index_lower"]["rows"] == []
    assert cert31["obstruction"]["global_order"] == "1"


def test_period_rows_cover_every_proper_multiple(cert33):
    assert [(r["m"], r["valuation"]) for r in cert33["period"]["rows"]] == [
        ("1", "1"),
        ("2", "2"),
    ]


def test_certificates_verify_after_roundtrip(cert33, cert31, cert22):
    for cert in (cert33, cert31, cert22):
        ok, trace = verify_certificate(_roundtrip(cert))
        assert ok, trace


def test_rebuild_is_byte_identical(cert33):
    cv, basis, gens = _cubic()
    again = certify_mode_B(cv, basis, 3, gens, BOUND)
    assert canonical_json(again) == canonical_json(cert33)


def test_mode_a_equals_mode_b_on_trivial_action():
    # level 2 over Q: the cyclotomic field is Q itself, so the norm step
    # degenerates and both modes must emit the same bytes up to the label
    cv, basis, gens = _quadratic()
    a = certify_mode_A(cv, basis, 1, gens, BOUND)
    b = certify_mode_B(cv, basis, 1, gens, BOUND)

    def strip(cert):
        ctx = {k: v for k, v in cert["context"].items() if k != "mode"}
        return canonical_json({**cert, "context": ctx})

    assert a["context"]["mode"] == "A"
    assert b["context"]["mode"] == "B"
    assert strip(a) == strip(b)
    assert a["summary"] == {"period": "2", "index": "2", "places": ["17", "41"]}


# ------------------------------------------------------------ even routing


def test_even_direct_mode_demands_doubled_data():
    cv, basis, gens = _quartic()
    with pytest.raises(InputError, match="even_adjust"):
        certify_mode_A(cv, basis, 2, gens, BOUND)
    with pytest.raises(InputError, match="even_adjust"):
        certify_mode_B(cv, basis, 1, gens, BOUND)


def test_mode_a_is_refused_at_the_direct_level_4():
    # the seed pair's invariant has order 4 at v and is 0 at the other
    # places over p, so no pair keeps the doubles-equal rule: refused
    # before the sieve, naming the mode and the level
    cv, basis, gens = _quartic()
    with pytest.raises(InputError, match="mode A cannot certify at the even level 4") as e:
        certify_mode_A(cv, basis, 4, gens, BOUND)
    assert e.value.paths == ("context.mode", "context.n")


def test_even_adjust_rejects_direct_targets():
    cv, basis, gens = _quartic()
    with pytest.raises(InputError, match="direct modes"):
        even_adjust(cv, basis, 4, 4, gens, BOUND)


def test_even_adjust_rejects_wrong_level_data():
    cv, basis, gens = _quadratic()
    with pytest.raises(InputError, match="level 4"):
        even_adjust(cv, basis, 2, 2, gens, BOUND)


def test_even_adjust_rejects_non_power_of_two():
    cv, basis, gens = _cubic()
    with pytest.raises(InputError, match="powers of two"):
        even_adjust(cv, basis, 3, 1, gens, BOUND)


def test_doubled_route_record(cert22):
    assert cert22["summary"]["period"] == "2"
    assert cert22["summary"]["index"] == "4"
    assert cert22["route"]["kind"] == "doubled"
    assert cert22["route"]["construction_level"] == "4"
    assert cert22["route"]["raw_symbol_order_at_v"] == "4"
    assert cert22["route"]["stable_generator_rational"] is True
    assert cert22["obstruction"]["place_consistency"] == "doubles-equal"


def test_doubled_trivial_target():
    cv, basis, gens = _quartic()
    cert = even_adjust(cv, basis, 2, 1, gens, BOUND)
    assert cert["summary"]["period"] == "2"
    assert cert["summary"]["index"] == "2"
    ok, trace = verify_certificate(_roundtrip(cert))
    assert ok, trace


def test_declared_order_must_match(cert33, cert22, tmp_path, capsys):
    # only a certificate declares the order; the digest is recomputed, so
    # the declaration itself must fail
    for cert, declared in ((cert33, "9"), (cert22, "2")):
        mutant = _roundtrip(cert)
        curve = mutant["inputs"]["curve"]
        curve["stable_subgroup_order"] = declared
        mutant["inputs"]["digest"] = content_digest(curve)
        path = tmp_path / "mutant.json"
        path.write_text(canonical_json(mutant))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "inputs.curve.stable_subgroup_order: declared stable subgroup order" in err


# ------------------------------------------------------------- composition


def test_compose_coprime_claims(cert22, cert33):
    comp = compose_coprime(cert22, cert33, allow_different_jacobians=True)
    assert comp["summary"]["period"] == "6"
    assert comp["summary"]["index"] == "36"
    assert comp["jacobians_match"] is False
    assert comp["coprimality"] == {"left_period": "2", "right_period": "3", "gcd": "1"}
    assert lichtenbaum_check(6, 36)
    ok, trace = verify_certificate(_roundtrip(comp))
    assert ok, trace


def test_compose_requires_matching_curves_by_default(cert22, cert33):
    with pytest.raises(InputError, match="different curves"):
        compose_coprime(cert22, cert33)


def test_compose_rejects_shared_period_factors(cert33, cert31):
    with pytest.raises(InputError, match="share a factor"):
        compose_coprime(cert33, cert31)


def test_compose_rejects_non_certificates(cert33):
    with pytest.raises(InputError):
        compose_coprime(cert33, {"kind": "something"})


_SUMMARY3 = {"period": "3", "index": "9", "places": ["7", "13"]}


@pytest.mark.parametrize("body, rel, msg", [
    ({"kind": "composite", "summary": _SUMMARY3}, "parts", "missing field"),
    ({"kind": "prime-power", "summary": _SUMMARY3}, "inputs", "missing field"),
    ({"kind": "prime-power", "summary": _SUMMARY3, "inputs": {"digest": ["0"]}},
     "inputs.digest", "expected a string"),
    ({"kind": "composite", "summary": _SUMMARY3, "parts": [{"kind": "prime-power"}]},
     "parts[0].inputs", "missing field"),
    ({"kind": "composite", "summary": _SUMMARY3, "parts": {}}, "parts", "expected a list"),
    ({"kind": "composite"}, "summary", "missing field"),
    ({"kind": "composite", "summary": {**_SUMMARY3, "period": "three"}},
     "summary.period", 'expected an exact integer, found "three"'),
], ids=["no-parts", "no-inputs", "digest-not-a-string", "nested-part-no-inputs",
        "parts-not-a-list", "no-summary", "period-not-an-integer"])
def test_compose_names_the_malformed_field_of_a_part(cert22, body, rel, msg):
    # called from Python, compose_coprime trusts no part: a valid kind
    # over a broken body raises InputError at the field, on either side
    for args, at in (((body, cert22), "parts[0]"), ((cert22, body), "parts[1]")):
        with pytest.raises(InputError) as err:
            compose_coprime(*args)
        assert (err.value.paths, str(err.value)) == (("%s.%s" % (at, rel),), msg)


# ------------------------------------------------------------ verification


def test_verify_rejects_perturbed_invariant(cert33):
    mutant = _roundtrip(cert33)
    row = mutant["obstruction"]["local_rows"][2]
    row["invariant"] = "2/3" if row["invariant"] != "2/3" else "1/3"
    ok, trace = verify_certificate(mutant)
    assert not ok
    assert any("local_rows[2]" in path for path, _ in trace)


def test_verify_rejects_deleted_lower_rows(cert33):
    mutant = _roundtrip(cert33)
    mutant["index_lower"]["rows"] = []
    ok, trace = verify_certificate(mutant)
    assert not ok
    assert any("index lower bound unproven" in msg for _, msg in trace)


def test_verify_rejects_mode_flip(cert33):
    # claiming the corestriction data came from the trivial-action route
    # contradicts the recorded representation
    mutant = _roundtrip(cert33)
    mutant["context"]["mode"] = "A"
    ok, trace = verify_certificate(mutant)
    assert not ok


def test_verify_rejects_inflated_claims(cert33):
    mutant = _roundtrip(cert33)
    mutant["summary"]["index"] = "27"
    mutant["index_upper"]["claim"] = "27"
    mutant["index_lower"]["claim"] = "27"
    ok, trace = verify_certificate(mutant)
    assert not ok


def test_verify_rejects_unknown_kind():
    ok, trace = verify_certificate({"kind": "exotic"})
    assert not ok
    assert trace[0][0] == "kind"


def test_verify_rejects_extra_fields(cert33):
    mutant = _roundtrip(cert33)
    mutant["extra"] = "x"
    ok, trace = verify_certificate(mutant)
    assert not ok
    assert "unexpected" in trace[0][1]


def test_digest_pins_the_curve_block(cert33):
    mutant = _roundtrip(cert33)
    mutant["inputs"]["digest"] = "0" * 64
    ok, trace = verify_certificate(mutant)
    assert not ok
    assert any(path == "inputs.digest" for path, _ in trace)
    assert content_digest(cert33["inputs"]["curve"]) == cert33["inputs"]["digest"]


ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs"


def _curve_blocks() -> list:
    """The curve block of every acceptance certificate, parts included."""
    blocks = []
    for path in sorted(INPUTS.glob("cert-*.json")):
        cert = json.loads(path.read_text())
        blocks += [part["inputs"]["curve"] for part in cert.get("parts", [cert])]
    return blocks


def test_builtin_sha256_agrees_with_hashlib():
    # every length across the 55/56/63/64/65-byte padding boundaries
    data = bytes(range(200))
    for k in range(201):
        assert sha256(data[:k]).hexdigest() == hashlib.sha256(data[:k]).hexdigest(), k
    blocks = _curve_blocks()
    assert len(blocks) == 6
    for curve in blocks:
        assert content_digest(curve) == hashlib.sha256(canonical_json(curve).encode()).hexdigest()


def test_digest_falls_back_to_hashlib_without_the_builtin():
    # a build without the interpreter's own SHA-256 hashes through hashlib,
    # to the same recorded digest
    path = INPUTS / "cert-2-1.json"
    code = (
        "import json, pathlib, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from period_index import construct\n"
        "cert = json.loads(pathlib.Path(sys.argv[1]).read_text())\n"
        "print(construct.content_digest(cert['inputs']['curve']), '_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%s True\n" % json.loads(path.read_text())["inputs"]["digest"]


# keys and values JSON text cannot spell, which a Python caller can pass:
# each edit of cert-3-3 updates the object at holder
@pytest.mark.parametrize(
    "holder, edit, paths",
    [
        ("summary", {1: "a"}, ["summary", "summary.1"]),
        ("summary", {1: "a", "z": "b"}, ["summary", "summary.z", "summary.1"]),
        ("inputs.curve", {5: "x"}, ["inputs.curve", "inputs.curve.5"]),
        ("summary", {"places": {1: "a", "z": "b"}}, ["summary.places"]),
    ],
    ids=["int-key", "mixed-keys", "curve-block-key", "mixed-keys-value"],
)
def test_verify_names_what_json_text_cannot_spell(holder, edit, paths):
    # each answered "check failed": the diff read an int key as a path
    # and sorted mixed keys, the curve block's digest sorted them, and a
    # recorded value was shown by json.dumps with its keys sorted
    cert = json.loads((INPUTS / "cert-3-3.json").read_text())
    obj = cert
    for key in holder.split("."):
        obj = obj[key]
    obj.update(edit)
    ok, trace = verify_certificate(cert)
    assert not ok
    assert [path for path, _ in trace] == paths
    assert not any(msg.startswith("check failed") for _, msg in trace)


def test_verify_arithmetic_budget(monkeypatch):
    # verify of the five acceptance certificates: folding every product
    # through _reduce cost 729 calls, and 746 products were made, with
    # __pow__ starting from 1 and squaring once past its last bit; written
    # out at degree <= 2, products leave _reduce to the Galois spreads (67),
    # and a power loop from the base makes 632 products; 69 of those
    # multiplied by exactly 1, from twisted_norm and the conjugate product
    # starting at 1, and without them 563 remain; 6 more multiplied by the
    # conjugate product 1 at level 2, in field_norm and invert: 557
    calls = Counter()
    reduce, mul = cyclo._reduce, CycloElem.__mul__

    def counted_reduce(*args):
        calls["reduce"] += 1
        return reduce(*args)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(cyclo, "_reduce", counted_reduce)
    monkeypatch.setattr(CycloElem, "__mul__", counted_mul)
    monkeypatch.setattr(CycloElem, "__rmul__", counted_mul)
    paths = sorted(INPUTS.glob("cert-*.json"))
    assert len(paths) == 5
    for path in paths:
        assert verify_certificate(json.loads(path.read_text())) == (True, []), path.name
    assert calls["reduce"] <= 100
    assert calls["mul"] <= 557


def test_elem_coeffs_matches_the_fraction_spelling():
    # "a" or "a/b" in lowest terms, as str of the Fraction coordinate spells
    # it, for negative, zero and reducible coordinates at every level
    rng = random.Random(2828)
    for n in cyclo.SUPPORTED_LEVELS:
        d = cyclo.context(n).degree
        for _ in range(40):
            den = rng.choice((1, 2, 4, 6, 9, 12, 35))
            coords = [Fraction(rng.randint(-40, 40) * rng.choice((1, 2, 3)), den) for _ in range(d)]
            assert elem_coeffs(CycloElem(n, coords)) == [str(c) for c in coords]


@pytest.mark.parametrize("value", [7, -12, 0, "7", " -3/2 ", "007", "-0", "4/6", "-0/5", "10/4"])
def test_read_elem_matches_fraction(value):
    # every accepted spelling reads as Fraction reads it, as a scalar and
    # as a coordinate
    want = Fraction(value)
    for level in (2, 3, 4, 9):
        assert read_elem(level, value, "x") == CycloElem(level, [want])
    assert read_elem(3, [1, value], "x") == CycloElem(3, [1, want])


@pytest.mark.parametrize("text", ["7" * 4301, "-" + "7" * 4301, "7/" + "7" * 4301, "7" * 4301 + "/7"])
def test_read_elem_names_a_coordinate_past_the_digit_limit(text):
    # the interpreter's own message, the one Fraction(text) raises, at the
    # coordinate's path
    with pytest.raises(ValueError) as want:
        Fraction(text)
    with pytest.raises(InputError) as got:
        read_elem(3, ["1", text], "pair.first.pi")
    assert str(got.value) == str(want.value)
    assert got.value.paths == ("pair.first.pi[1]",)


def _diff_lines(recorded, derived) -> list:
    trace = []
    _diff(recorded, derived, "", "", trace, {})
    return trace


# (recorded, derived, same): JSON values of different types differ even
# where Python's == holds, key order does not count, list length does
_SAME_CASES = [
    (True, 1, False),
    (1, True, False),
    (False, 0, False),
    (0, False, False),
    ("1", 1, False),
    (None, {}, False),
    ({}, None, False),
    (None, None, True),
    ([], {}, False),
    ("3", "3", True),
    ({"a": "1", "b": ["2", True]}, {"b": ["2", True], "a": "1"}, True),
    ({"a": "1"}, {"a": "1", "b": "2"}, False),
    ({"a": "1", "c": "2"}, {"a": "1", "b": "2"}, False),
    (["1", "2"], ["1", "2", "3"], False),
    (["1", "2", "3"], ["1", "2"], False),
    ({"a": [{"b": [True]}]}, {"a": [{"b": [1]}]}, False),
    ({"a": [{"b": [False, None]}]}, {"a": [{"b": [False, None]}]}, True),
    ([["1", {"x": []}]], [["1", {"x": {}}]], False),
    ([["1", {"x": []}]], [["1", {"x": []}]], True),
]
# and for the exact-type dispatch of _same: a float is not a bool, a
# tuple is not a list, an integer key is not its decimal string
_SAME_TYPE_CASES = [
    (1.0, True, False),
    (("1",), ["1"], False),
    ({1: "a"}, {"1": "a"}, False),
]


@pytest.mark.parametrize("recorded, derived, same", _SAME_CASES + _SAME_TYPE_CASES)
def test_same_agrees_with_diff(recorded, derived, same):
    # verify runs the diff only when _same is false, so _same must be
    # false exactly when the diff writes a line
    assert _same(recorded, derived) is same
    assert bool(_diff_lines(recorded, derived)) is not same


def test_same_agrees_with_diff_on_every_leaf_edit(cert33):
    # each leaf of a certificate set to another value of its own type and
    # to a value of each other JSON type, true and false to 1 and 0 among them
    cert = _roundtrip(cert33)
    assert _same(cert, _roundtrip(cert33)) and not _diff_lines(cert, cert33)
    edits = 0
    for path, old in _leaf_paths(cert):
        for new in ("tampered", "1", 1, 0, True, False, None, [], {}, [old], {"k": old}):
            if type(new) is type(old) and new == old:
                continue
            mutant = copy.deepcopy(cert)
            _set_path(mutant, path, new)
            assert not _same(mutant, cert) and _diff_lines(mutant, cert), (path, new)
            edits += 1
    assert edits > 1000


def test_diff_writes_the_full_walk_lines_on_every_leaf_edit(cert33):
    # the edits of test_same_agrees_with_diff_on_every_leaf_edit, diffed as
    # verify diffs a part of a composite: the walk that descends only where
    # _same finds a difference writes the lines of the walk over every
    # node, section suffixes included, in the same order
    cert = _roundtrip(cert33)
    mutant = _roundtrip(cert33)
    edits = 0
    for path, old in _leaf_paths(cert):
        for new in ("tampered", "1", 1, 0, True, False, None, [], {}, [old], {"k": old}):
            if type(new) is type(old) and new == old:
                continue
            _set_path(mutant, path, new)
            got, want = [], []
            _diff(mutant, cert, "", "parts[1]", got, construct._SECTIONS)
            full_diff(mutant, cert, "", "parts[1]", want, construct._SECTIONS)
            assert got and got == want, (path, new)
            _set_path(mutant, path, old)
            edits += 1
    assert edits > 1000


def _edited(cert, edits: dict):
    out = _roundtrip(cert)
    for path, value in edits.items():
        _set_path(out, path, value)
    return out


_MULTI_EDITS = {
    "two sections": {"class.normed_pair.first[1]": "-20438",
                     "obstruction.unit_rows[0].place.root": "657"},
    "field set and value": {"summary.extra": "1", "summary.index": "27"},
    "list lengths": {"summary.places": ["757"], "class.normed_pair.first": ["757", "-20439", "0"]},
    "list and object swapped": {"obstruction.unit_rows": {}, "summary": []},
}


@pytest.mark.parametrize("edits", list(_MULTI_EDITS.values()), ids=list(_MULTI_EDITS))
def test_verify_trace_is_the_full_walk_trace_on_multiple_edits(cert33, monkeypatch, edits):
    mutant = _edited(cert33, edits)
    ok, trace = verify_certificate(mutant)
    monkeypatch.setattr(construct, "_diff", full_diff)
    assert not ok and len(trace) >= 2
    assert verify_certificate(mutant) == (ok, trace)


def test_verify_trace_is_the_full_walk_trace_on_a_composite(cert22, cert33, monkeypatch):
    # both parts edited, so each part writes its own lines; and a composite
    # field edited over unedited parts, whose derived parts are the
    # recorded ones and are not walked
    comp = compose_coprime(cert22, cert33, allow_different_jacobians=True)
    both = _edited(comp, {"parts[0].summary.index": "5", "parts[1].class.normed_pair.first[1]": "-20438"})
    top = _edited(comp, {"summary.index": "35", "coprimality.gcd": "2"})
    got = [verify_certificate(both), verify_certificate(top)]
    monkeypatch.setattr(construct, "_diff", full_diff)
    assert got == [verify_certificate(both), verify_certificate(top)]
    assert {path.split(".")[0] for path, _ in got[0][1]} == {"parts[0]", "parts[1]"}
    assert [path for path, _ in got[1][1]] == ["coprimality.gcd", "summary.index"]


# SHA-256 of the canonical bytes of each acceptance certificate
GOLDEN = {
    "cert31": "2b50d6a1f2102ffe06e4d2e96622786ac4e06b115fe3144008e2bd7ca58df216",
    "cert33": "dc2caee76f69031158ef6fa93c2c0e0df214c2aee87e73980f64a8402e4d7b1a",
    "cert22": "440347bc9065eb89ba51cd7ed46b7936b2d3104027a8f8ee5a4ec3ba6e6bbade",
    "composite": "bebc3e69f34cd3c6afda850127204fa1ae290928697e74827b5df7a393ac4660",
}


def test_certificates_match_golden_bytes(cert31, cert33, cert22):
    certs = {
        "cert31": cert31,
        "cert33": cert33,
        "cert22": cert22,
        "composite": compose_coprime(cert22, cert33, allow_different_jacobians=True),
    }
    digests = {
        name: hashlib.sha256(canonical_json(cert).encode()).hexdigest()
        for name, cert in certs.items()
    }
    assert digests == GOLDEN


# the routes outside the acceptance gate, kept out of perfbench/inputs:
# cyclotomic claims in mode A at level 3, and the direct level 4 in mode B
GOLDEN_OFF_GATE = {
    "cert31A": "e76ce2da04b506e028989ec89797a3046801d10caf12fb171fe999bf32a7722f",
    "cert33A": "7fdf5b877ec5cfef3529bf0f03b5633efc56f9f6d2ca038f4f677df2cc4b9979",
    "cert44B": "baf83a9c08e7c2d8fcc503f425af227933dd210ffbe05afbcc6aa6ca94f47a5f",
}


def test_off_gate_certificates_match_golden_bytes():
    cv, basis, gens = _cubic()
    certs = {"cert3%dA" % ell: certify_mode_A(cv, basis, ell, gens, BOUND) for ell in (1, 3)}
    cv, basis, gens = _quartic()
    certs["cert44B"] = certify_mode_B(cv, basis, 4, gens, BOUND)
    digests = {
        name: hashlib.sha256(canonical_json(cert).encode()).hexdigest()
        for name, cert in certs.items()
    }
    assert digests == GOLDEN_OFF_GATE
    for cert in certs.values():
        assert verify_certificate(_roundtrip(cert)) == (True, [])
    assert [certs[name]["obstruction"]["place_consistency"] for name in sorted(certs)] == [
        "independent", "independent", "doubles-equal"
    ]
    assert certs["cert44B"]["route"]["symbol_exactness"] == "two-torsion-ambiguous"


def _dumps_canonical(x) -> str:
    """The json.dumps call canonical_json writes out by hand."""
    return json.dumps(x, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def test_canonical_json_matches_json_dumps(cert31, cert33, cert22):
    # the same bytes as json.dumps on the acceptance files, on each fresh
    # certificate and its curve block, and on hand-made values: empty and
    # nested containers, escapes, control and non-ASCII characters, and
    # every scalar JSON or Python hands over
    cv, basis, gens = _quadratic()
    cert21 = certify_mode_B(cv, basis, 1, gens, BOUND)
    values = [json.loads(path.read_text()) for path in sorted(INPUTS.glob("cert-*.json"))]
    assert len(values) == 5
    for cert in (cert21, cert31, cert33, cert22):
        values += [cert, cert["inputs"]["curve"]]
    values.append(compose_coprime(cert22, cert33, allow_different_jacobians=True))
    values += [
        {}, [], {"a": {}, "b": [], "c": [{}, [[]], {"d": {}}]}, [[], {}, [[{}]]],
        'say "hi"', "back\\slash\\", "\x00\x07\b\n\r\t\x1f\x7f", "naïve π ∞ \U0001f600 \ud800",
        {"é": "ü", "\n": "\\", '"': "", "": [""]}, {"b": 1, "a": {"d": [], "c": "x"}, "B": None},
        0, -12, 10**40, True, False, None, 1.5, -0.0, 1e300, 0.1, float("inf"),
        [1, "1", 1.0, True, None, -7], ("tuple", ("nested", ())),
    ]
    for x in values:
        assert canonical_json(x) == _dumps_canonical(x), x


def test_canonical_json_is_stable_under_reordering(cert33):
    shuffled = json.loads(json.dumps(_roundtrip(cert33)))
    assert canonical_json(shuffled) == canonical_json(cert33)
