import argparse
import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from period_index import construct, cyclo, ecq, kummer, localfield, sieve
from period_index.cli import MAX_NESTING, build_parser, main
from period_index.construct import content_digest, lichtenbaum_check
from test_acceptance import _covers, _leaf_paths, _perturb, _set_path, _trace_names
from verify_scan import _off_gate

BOUND = "100000"
# past the interpreter's 4,300-digit limit on converting a string to int
HUGE = "7" * 5000

CONFIG_CUBIC = {
    "curve": {
        "level": "3",
        "coefficients": ["0", "0", "1", "0", "0"],
        "torsion_basis": {
            "S": {"x": "0", "y": "0"},
            "T": {"x": "-1", "y": ["0", "1"]},
        },
        "mw_generators": [{"x": "0", "y": "0"}],
        "stable_subgroup_order": "3",
    },
    "parameters": {"n": "3", "ell": "3", "mode": "B"},
    "bounds": {"prime_bound": BOUND},
    "seed": "0",
    "output": {},
}

CONFIG_QUADRATIC = {
    "curve": {
        "level": "2",
        "coefficients": ["0", "0", "0", "-1", "0"],
        "torsion_basis": {"S": {"x": "0", "y": "0"}, "T": {"x": "1", "y": "0"}},
        "mw_generators": [{"x": "0", "y": "0"}, {"x": "1", "y": "0"}],
        "stable_subgroup_order": "2",
    },
    "parameters": {"n": "2", "ell": "1", "mode": "A"},
    "bounds": {"prime_bound": BOUND},
    "seed": "0",
    "output": {},
}

# y^2 = x^3 + 7x^2 - 144x over Q(i) with the order-4 point (24, 120): the
# level-2 target through the doubled level-4 route
CONFIG_QUARTIC = {
    "curve": {
        "level": "4",
        "coefficients": ["0", "7", "0", "-144", "0"],
        "torsion_basis": {
            "S": {"x": "24", "y": "120"},
            "T": {"x": ["0", "12"], "y": ["36", "-48"]},
        },
        "mw_generators": [{"x": "24", "y": "120"}, {"x": "0", "y": "0"}],
        "stable_subgroup_order": "4",
    },
    "parameters": {"n": "2", "ell": "2", "mode": "B"},
    "bounds": {"prime_bound": BOUND},
}


def _write_config(tmp_path, data, name="config.json", **edits):
    cfg = json.loads(json.dumps(data))
    for dotted, value in edits.items():
        cur = cfg
        keys = dotted.split("__")
        for k in keys[:-1]:
            cur = cur[k]
        cur[keys[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------- configs


def test_config_rejects_floats(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"curve": {"level": 3.0}}')
    assert main(["construct", "--config", str(path)]) == 2
    assert "exact" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct"])
def test_config_root_that_is_not_an_object_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: configuration root of %s must be an object\n" % path


def test_config_diagnostic_names_the_field(tmp_path, capsys, monkeypatch):
    # the route decision checks the mode once, before a prime is scanned
    def no_scan(*args):
        raise AssertionError("split_prime_stream entered with mode C")

    monkeypatch.setattr(sieve, "split_prime_stream", no_scan)
    cfg = _write_config(tmp_path, CONFIG_CUBIC, parameters__mode="C")
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: parameters.mode: mode must be A or B\n"


@pytest.mark.parametrize(
    "level, n",
    [("1", "1"), ("6", "6"), ("5", "5"), ("8", "8"), ("9", "9"), ("8", "4")],
    ids=["1", "6", "5", "8", "9", "8-doubled"],
)
def test_config_blames_an_unsupported_level_on_the_level(tmp_path, capsys, monkeypatch, level, n):
    # only levels 2, 3 and 4 can certify: every other level, direct or
    # doubled, is refused before a prime is scanned
    def no_scan(*args):
        raise AssertionError("split_prime_stream entered at level %s" % level)

    monkeypatch.setattr(sieve, "split_prime_stream", no_scan)
    cfg = _write_config(tmp_path, CONFIG_CUBIC, curve__level=level, parameters__n=n)
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: curve.level:")


@pytest.mark.parametrize(
    "key, value",
    [
        ("bounds__prime_bound", "0"),
        ("bounds__prime_bound", "-5"),
        ("bounds__prime_bound", str(cyclo.PRIME_PROOF_LIMIT)),
        ("parameters__n", "0"),
        ("parameters__ell", "-1"),
        ("curve__stable_subgroup_order", "0"),
        ("curve__stable_subgroup_order", "9"),
    ],
)
def test_config_blames_an_out_of_range_number_on_its_field(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, **{key: value})
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: %s:" % key.replace("__", "."))


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("curve__torsion_basis__S__x", "x", "curve.torsion_basis.S.x"),
        ("curve__mw_generators", [{"x": "0", "y": "1/0"}], "curve.mw_generators[0].y"),
        ("curve__torsion_basis__T__y", ["0", "x"], "curve.torsion_basis.T.y[1]"),
        ("curve__torsion_basis__S__x", "2.5", "curve.torsion_basis.S.x"),
    ],
)
def test_config_blames_a_bad_coordinate_on_itself(tmp_path, capsys, key, value, field):
    # a scalar coordinate is named as given, a list entry by its index
    cfg = _write_config(tmp_path, CONFIG_CUBIC, **{key: value})
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: %s:" % field)


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("curve__torsion_basis__S__x", HUGE, "curve.torsion_basis.S.x"),
        ("curve__mw_generators", [{"x": "0", "y": HUGE}], "curve.mw_generators[0].y"),
        # ARABIC-INDIC DIGIT ONE: a Unicode digit, not an ASCII decimal
        ("curve__coefficients", ["0", "0", "\u0661", "0", "0"], "curve.coefficients[2]"),
        ("bounds__prime_bound", "\u0661", "bounds.prime_bound"),
    ],
    ids=["long-S.x", "long-generator-y", "unicode-coefficient", "unicode-prime-bound"],
)
def test_config_reads_ascii_decimals_of_any_length_or_names_the_field(tmp_path, capsys, key, value, field):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, **{key: value})
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: %s:" % field)


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("curve__mw_generators", [None], "curve.mw_generators[0]"),
        ("output", [], "output"),
        ("output", 0, "output"),
        ("output", False, "output"),
        ("output", "", "output"),
    ],
)
def test_config_rejects_null_points_and_non_object_output(tmp_path, capsys, key, value, field):
    # the point at infinity is spelled "infinity", and output, when
    # present, is an object
    cfg = _write_config(tmp_path, CONFIG_CUBIC, **{key: value})
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: %s:" % field)


@pytest.mark.parametrize(
    "base, ell",
    [(CONFIG_CUBIC, "1"), (CONFIG_CUBIC, "3"), (CONFIG_QUADRATIC, "1"), (CONFIG_QUARTIC, "2")],
    ids=["3-1", "3-3", "2-1", "2-2"],
)
@pytest.mark.parametrize("value", ["40", "0", "x"])
def test_config_ignores_the_former_search_knobs(tmp_path, capsys, base, ell, value):
    # bounds.coeff_bound, bounds.unit_window and seed are unknown fields:
    # the certificate is the one built without them
    plain = _write_config(tmp_path, base, name="plain.json", parameters__ell=ell)
    knobs = _write_config(
        tmp_path, base, name="knobs.json", parameters__ell=ell,
        bounds__coeff_bound=value, bounds__unit_window=value, seed=value,
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["construct", "--config", plain, "--out", str(a)]) == 0
    assert main(["construct", "--config", knobs, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "output, argv, field",
    [
        ({"certificate": ""}, [], "error: output.certificate:"),
        ({"certificate": None}, [], "error: output.certificate:"),
        ({}, ["--out", ""], "argument --out:"),
    ],
    ids=["empty", "null", "out-flag"],
)
def test_construct_rejects_an_empty_certificate_path(tmp_path, capsys, output, argv, field):
    # an empty path is malformed, not a request for stdout
    cfg = _write_config(tmp_path, CONFIG_QUADRATIC, output=output)
    assert main(["construct", "--config", cfg] + argv) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


def test_config_rejects_wrong_coefficient_count(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, curve__coefficients=["0", "0", "1"])
    assert main(["construct", "--config", cfg]) == 2
    assert "coefficients" in capsys.readouterr().err


def test_config_rejects_tampered_basis(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, CONFIG_CUBIC, curve__torsion_basis={"S": {"x": "0", "y": "0"}, "T": {"x": "0", "y": "-1"}}
    )
    assert main(["construct", "--config", cfg]) == 2
    assert "torsion_basis" in capsys.readouterr().err


def test_missing_subcommand_is_an_input_error(capsys):
    assert main([]) == 2


def _subcommands() -> set:
    (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(action.choices)


def test_the_retired_diagnostics_are_unknown_subcommands(tmp_path, capsys):
    # the CLI is the certificate pipeline; local symbols and norm factors
    # are recorded and checked inside every certificate
    assert _subcommands() == {"construct", "compose", "verify"}
    cfg = _write_config(tmp_path, CONFIG_CUBIC)
    for argv in (
        ["hilbert", "--n", "2", "-a", "2", "-b", "3"],
        ["norm-twist", "--config", cfg, "-a", "28,27", "-b", "82,135"],
        ["sieve", "--config", cfg],
    ):
        assert main(argv) == 2
        assert "invalid choice: '%s'" % argv[0] in capsys.readouterr().err


def test_readme_lists_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = {line.split()[1] for line in block.splitlines() if line.startswith("period-index ")}
    assert listed == _subcommands()


@pytest.mark.parametrize("whole_file", [False, True])
def test_json_nested_past_the_recursion_limit_names_the_file(cert_paths, tmp_path, capsys, whole_file):
    # a value nested too deep for the parser, inside a certificate or as
    # an unclosed file of brackets: exit 2 naming the file, never a
    # traceback
    _, c2 = cert_paths
    deep = tmp_path / "deep.json"
    if whole_file:
        deep.write_text("[" * 100000)
    else:
        deep.write_text(c2.read_text().replace("{", '{"extra": %s, ' % ("[" * 5000 + "]" * 5000), 1))
    for argv in (
        ["verify", str(deep)],
        ["compose", str(c2), str(deep)],
        ["construct", "--config", str(deep)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: %s is not valid JSON: nesting too deep\n" % deep


def _nested(cert_text: str, depth: int) -> str:
    """The certificate with an extra root key holding a list nested so
    that the file nests depth deep (the root object is one level)."""
    return cert_text.replace("{", '{"extra": %s, ' % ("[" * (depth - 1) + "]" * (depth - 1)), 1)


def _deeper(frames: int, argv) -> int:
    """main(argv) called frames calls further down the stack."""
    return main(argv) if frames == 0 else _deeper(frames - 1, argv)


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 990])
def test_json_nesting_is_decided_by_the_file(cert_paths, tmp_path, capsys, depth):
    # the three subcommands give one answer for a file, however deep the
    # stack they read it from: past MAX_NESTING exit 2 with "nesting too
    # deep", at or below it the file parses (verify and compose reject
    # the extra key with exit 1, and construct, reading a certificate as
    # a configuration, misses the curve with exit 2).  At 990 the
    # parser's own limit let verify read the file and not construct, one
    # frame deeper.
    _, c2 = cert_paths
    deep = tmp_path / "deep.json"
    deep.write_text(_nested(c2.read_text(), depth))
    too_deep = "error: %s is not valid JSON: nesting too deep\n" % deep
    for argv, parsed in (
        (["verify", str(deep)], 1),
        (["compose", str(c2), str(deep)], 1),
        (["construct", "--config", str(deep)], 2),
    ):
        for frames in (0, 300):
            code, err = _deeper(frames, argv), capsys.readouterr().err
            if depth > MAX_NESTING:
                assert (code, err) == (2, too_deep), (argv, frames)
            else:
                assert code == parsed and "nesting too deep" not in err, (argv, frames, err)


def test_json_nesting_skips_brackets_inside_strings(cert_paths, tmp_path, capsys):
    # a string full of brackets and escaped quotes raises the bracket
    # count past MAX_NESTING, but not the nesting
    _, c2 = cert_paths
    text = '[[\\"{' * MAX_NESTING
    target = tmp_path / "brackets.json"
    target.write_text(c2.read_text().replace("{", '{"extra": "%s", ' % text, 1))
    assert main(["verify", str(target)]) == 1
    assert capsys.readouterr().err.startswith("certificate: field set mismatch")


# -------------------------------------------------------------- construct


def test_construct_writes_and_reports(tmp_path, capsys):
    out = tmp_path / "cert.json"
    cfg = _write_config(tmp_path, CONFIG_CUBIC, output__certificate=str(out))
    assert main(["construct", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "period=3 index=9 places=(757, 13879)" in printed
    cert = json.loads(out.read_text())
    assert cert["summary"]["period"] == "3"


@pytest.mark.parametrize(
    "target, via_config, says",
    [
        ("dir", False, "error: --out: cannot write "),
        ("missing/x.json", False, "error: --out: cannot write "),
        ("dir", True, "error: output.certificate: cannot write "),
        ("missing/x.json", True, "error: output.certificate: cannot write "),
    ],
    ids=["out-dir", "out-missing-dir", "config-dir", "config-missing-dir"],
)
def test_construct_names_a_certificate_path_it_cannot_write(tmp_path, capsys, target, via_config, says):
    # a path that cannot be written is malformed input: exit 2 naming the
    # field the path came from, and no temporary file left beside it
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / target)
    cfg = _write_config(tmp_path, CONFIG_QUADRATIC, output={"certificate": out} if via_config else {})
    before = sorted(tmp_path.rglob("*"))
    assert main(["construct", "--config", cfg] + ([] if via_config else ["--out", out])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(says + out + ": ") and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["dir", "missing/x.json"])
def test_compose_names_an_out_path_it_cannot_write(cert_paths, tmp_path, capsys, target):
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / target)
    before = sorted(tmp_path.rglob("*"))
    argv = ["compose", *map(str, cert_paths), "--out", out, "--allow-different-jacobians"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --out: cannot write %s: " % out)
    assert sorted(tmp_path.rglob("*")) == before


# any exact model: coefficient denominators, cyclotomic coefficients, and
# a discriminant too large to factor; none has generators to divide
_MODELS = {
    # y^2 = x^3 - x/16
    "fractional": (
        "2", ["0", "0", "0", "-1/16", "0"],
        {"S": {"x": "0", "y": "0"}, "T": {"x": "1/4", "y": "0"}}, ("2", "1"),
        "period=2 index=2", (17, 41),
    ),
    # y^2 + y = (x + zeta)^3
    "cyclotomic": (
        "3", ["0", ["0", "3"], "1", ["-3", "-3"], "1"],
        {"S": {"x": ["0", "-1"], "y": "0"}, "T": {"x": ["-1", "-1"], "y": ["0", "1"]}},
        ("3", "3"), "period=3 index=9", (757, 13879),
    ),
    # y^2 = x(x - b)(x + a), a = 10000000000000061, b = 30000000000000029
    "large-discriminant": (
        "2", ["0", "-19999999999999968", "0", "-300000000000002120000000000001769", "0"],
        {"S": {"x": "0", "y": "0"}, "T": {"x": "30000000000000029", "y": "0"}}, ("2", "1"),
        "period=2 index=2", (17, 41),
    ),
}


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_construct_and_verify_any_exact_model(tmp_path, capsys, model):
    level, coefficients, basis, (n, ell), claims, places = _MODELS[model]
    cfg = _write_config(
        tmp_path, CONFIG_QUADRATIC, curve__level=level, curve__coefficients=coefficients,
        curve__torsion_basis=basis, curve__mw_generators=[], curve__stable_subgroup_order=level,
        parameters__n=n, parameters__ell=ell, bounds__prime_bound="1000" if n == "2" else BOUND,
    )
    out = tmp_path / "cert.json"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "%s places=%s\n" % (claims, places)
    assert main(["verify", str(out)]) == 0


def test_construct_reruns_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["construct", "--config", cfg, "--out", str(a)]) == 0
    assert main(["construct", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_exhausted_bounds_reports_histogram(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, bounds__prime_bound="800")
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "search exhausted" in err
    # the summary ends the exception's message and is not printed again
    assert err.count("scanned=") == 1


@pytest.mark.parametrize(
    "edit, says",
    [
        ({"mw_generators": [{"x": "-1", "y": ["0", "1"]}]},
         "error: curve.mw_generators[0]: generator 0 is not rational; "),
        ({"torsion_basis": {"S": {"x": ["0", "-1"], "y": ["0", "1"]},
                            "T": {"x": "-1", "y": ["0", "1"]}}},
         "error: curve.torsion_basis: the route needs a stable subgroup: "),
    ],
    ids=["irrational-generator", "unstable-basis"],
)
def test_construct_blames_a_route_hypothesis_on_its_config_field(tmp_path, capsys, edit, says):
    # mode B over Q: the generators must be rational, and the basis action
    # upper triangular (S + T spans no stable subgroup)
    cfg = _write_config(tmp_path, CONFIG_CUBIC, curve=dict(CONFIG_CUBIC["curve"], **edit))
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith(says)


def test_construct_exits_4_when_the_pairing_and_the_group_disagree(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sieve, "divisibility_witness", lambda *args: None)
    cfg = _write_config(tmp_path, CONFIG_QUARTIC)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 4
    assert capsys.readouterr().err.startswith("internal inconsistency: ")
    assert not (tmp_path / "x.json").exists()


def test_construct_level_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, parameters__n="9")
    assert main(["construct", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameters.n:") and "neither" in err


# every (n, ell, mode) with ell up to 2n on the acceptance curves: the
# cubic at n = 3, the quadratic at n = 2, and the quartic at n = 2
# (doubled) and n = 4 (direct)
_ROUTE_TABLE = [
    (name, base, n, ell, mode)
    for name, base, levels in (("cubic", CONFIG_CUBIC, (3,)), ("quadratic", CONFIG_QUADRATIC, (2,)),
                               ("quartic", CONFIG_QUARTIC, (2, 4)))
    for n in levels
    for ell in range(1, 2 * n + 1)
    for mode in "AB"
]
# the entries that certify: README's routes
_CERTIFIED = {
    (name, n, ell, mode)
    for name, n, targets in (("cubic", 3, (1, 3)), ("quadratic", 2, (1, 2)), ("quartic", 2, (1, 2)))
    for ell in targets
    for mode in "AB"
} | {("quartic", 4, 4, "B")}


def _assert_unchecked_facts(cert: dict, entry) -> None:
    """The claim facts the derivation records without a check of their own,
    re-derived from the certificate: the lcm of the recorded orders (the
    descended rows for rational claims, every local row for cyclotomic
    ones) is ell and the global order, every shift of the index rows is
    nonzero, and the claims keep the duality bound."""
    ob = cert["obstruction"]
    rational = cert["context"]["claims_field"] == "rational"
    rows = ob["descended_rows"] if rational else ob["local_rows"]
    orders = lcm(*(int(row["order"]) for row in rows))
    assert orders == int(cert["context"]["ell"]) == int(ob["global_order"]), entry
    for row in cert["index_lower"]["rows"]:
        assert Fraction(row["shifted_invariant"]) != 0, entry
    summary = cert["summary"]
    assert lichtenbaum_check(int(summary["period"]), int(summary["index"])), entry


def test_every_route_on_the_acceptance_curves_certifies_or_names_a_field(
    tmp_path, capsys, monkeypatch
):
    # each entry exits 0 with a certificate that verifies, or exits 2
    # naming a field of its configuration; none exits 3 or 4.  Mode A at
    # the direct level 4 exited 4: no pair keeps the doubles-equal rule.
    # The route is decided before the search: a refused entry scans no prime
    stream, scans = sieve.split_prime_stream, [0]

    def counted(*args):
        scans[0] += 1
        return stream(*args)

    monkeypatch.setattr(sieve, "split_prime_stream", counted)
    assert len(_ROUTE_TABLE) == 44
    certified, refused = set(), {}
    for name, base, n, ell, mode in _ROUTE_TABLE:
        entry = (name, n, ell, mode)
        cfg = json.loads(json.dumps(base))
        cfg["parameters"] = {"n": str(n), "ell": str(ell), "mode": mode}
        path, out = tmp_path / "route.json", tmp_path / "cert.json"
        path.write_text(json.dumps(cfg))
        scans[0] = 0
        code = main(["construct", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            assert main(["verify", str(out)]) == 0, entry
            capsys.readouterr()
            assert scans[0] == 1, entry
            _assert_unchecked_facts(json.loads(out.read_text()), entry)
            certified.add(entry)
            continue
        field = re.match(r"error: ([^\s:]+): ", err)
        assert code == 2 and field, (entry, code, err)
        assert any(_covers(field.group(1), leaf) for leaf, _ in _leaf_paths(cfg)), (entry, err)
        assert scans[0] == 0, entry
        refused[entry] = field.group(1)
    assert certified == _CERTIFIED
    assert refused[("quartic", 4, 4, "A")] == "parameters.mode"
    assert refused[("cubic", 3, 2, "A")] == "parameters.ell"


def test_verify_refuses_mode_a_at_the_direct_level_4(tmp_path, capsys):
    # the (4, 4) certificate of mode B with its mode edited to A: the route
    # decision refuses it at context.mode, as construct refuses the
    # configuration, before a place is read
    cfg = _write_config(tmp_path, CONFIG_QUARTIC, parameters={"n": "4", "ell": "4", "mode": "B"})
    out = tmp_path / "cert-4-4.json"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["context"]["mode"] = "A"
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == ["context.mode", "context.n"]
    assert "mode A cannot certify at the even level 4" in lines[0]


def test_sieve_prints_the_pair_and_its_histogram(tmp_path, capsys):
    # construct prints the pair the search finds; with the bound one short
    # of the partner it prints the histogram of every prime scanned before
    # it (find_pair's own stats at the partner count it too: scanned=92)
    cfg = _write_config(tmp_path, CONFIG_CUBIC)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "c.json")]) == 0
    assert capsys.readouterr().out == "period=3 index=9 places=(757, 13879)\n"
    cfg = _write_config(tmp_path, CONFIG_CUBIC, bounds__prime_bound="13878")
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 3
    assert capsys.readouterr().err == (
        "search exhausted: no admissible partner below 13878 (scanned=91 no_generator=83 "
        "generators=8 divisibility=1/1 pairs_tried=7 order_rejected=3 conjugate_rejected=4)\n"
    )


def test_sieve_level_mismatch(tmp_path, capsys, monkeypatch):
    # the route decision refuses a level mismatch before the prime search
    def no_scan(*args):
        raise AssertionError("split_prime_stream entered with n=1")

    monkeypatch.setattr(sieve, "split_prime_stream", no_scan)
    cfg = _write_config(tmp_path, CONFIG_CUBIC, parameters__n="1")
    assert main(["construct", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameters.n:") and "neither" in err


# edits of a configuration leaf to another JSON type or an out-of-range number
CONFIG_EDITS = ("-5", "0", "1/2", "x", [], {}, None, 7, "12345678901234567890")


def _names_the_edit(err: str, path: str) -> bool:
    """err starts "error: <field>:", the field being the edited path, an
    object enclosing it, or a field of the object the edit sits in (a
    check relating two fields of one object, such as the torsion basis
    against the coefficients, names one of them)."""
    m = re.match(r"error: ([^\s:]+):", err)
    if not m:
        return False
    field, enclosing = m.group(1), path.rsplit(".", 1)[0]
    return _covers(field, path) or ("." in path and _covers(enclosing, field))


def test_construct_names_every_edited_config_leaf(tmp_path, capsys):
    # every leaf of both configurations under each edit: exit 0, exit 2
    # naming the field, or exit 3 with a positive bound; never a
    # traceback or exit 4
    tried, missed = 0, []
    for base in (CONFIG_CUBIC, CONFIG_QUADRATIC):
        for path, old in _leaf_paths(base):
            for value in CONFIG_EDITS:
                if value == old:
                    continue
                cfg = json.loads(json.dumps(base))
                _set_path(cfg, path, value)
                target = tmp_path / "edited.json"
                target.write_text(json.dumps(cfg))
                out = str(tmp_path / "c.json")
                code = main(["construct", "--config", str(target), "--out", out])
                err = capsys.readouterr().err
                bound = re.search(r"below (-?\d+)", err)
                tried += 1
                if not (
                    code == 0
                    or code == 2 and _names_the_edit(err, path)
                    or code == 3 and bound and int(bound.group(1)) > 0
                ):
                    missed.append((path, value, code, err.splitlines()[:1]))
    assert tried > 300
    assert not missed


def test_construct_names_the_coefficients_for_a_basis_off_the_curve(tmp_path, capsys):
    # a coefficient edit that leaves a non-singular curve can move the
    # basis off it, or change the order of a basis point: each message
    # names the coefficients, and the first also names the point
    off_curve = 0
    for base in (CONFIG_CUBIC, CONFIG_QUADRATIC):
        for i in range(5):
            for value in CONFIG_EDITS:
                cfg = json.loads(json.dumps(base))
                cfg["curve"]["coefficients"][i] = value
                target = tmp_path / "edited.json"
                target.write_text(json.dumps(cfg))
                code = main(["construct", "--config", str(target), "--out", str(tmp_path / "c.json")])
                err = capsys.readouterr().err
                if code == 2:
                    assert "curve.coefficients" in err.splitlines()[0], (i, value, err)
                if "not on the curve" in err:
                    assert re.match(r"error: curve\.torsion_basis\.[ST]: point is not on the curve "
                                    r"given by curve\.coefficients$", err.splitlines()[0])
                    off_curve += 1
    assert off_curve >= 20


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_acceptance_certificates_are_byte_identical(tmp_path, capsys):
    # the four acceptance configurations and their composite, rebuilt,
    # match the stored benchmark inputs byte for byte
    wl = _perfbench_workloads()
    for name, cfg in wl.CONFIGS.items():
        out = tmp_path / ("cert-%s.json" % name)
        path = _write_config(tmp_path, cfg, name="config-%s.json" % name)
        assert main(["construct", "--config", path, "--out", str(out)]) == 0
    left, right = (str(tmp_path / ("cert-%s.json" % name)) for name in wl.COMPOSE)
    composite = tmp_path / "cert-composite.json"
    argv = ["compose", left, right, "--out", str(composite), "--allow-different-jacobians"]
    assert main(argv) == 0
    for name in wl.CERTS:
        built = (tmp_path / ("cert-%s.json" % name)).read_bytes()
        assert built == wl.cert_path(name).read_bytes(), name


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    # every call starts a new process: dataclasses pulls in inspect, ast,
    # dis and tokenize, about 7 ms and 1 MB before any work (-S keeps
    # site's .pth hooks out of the count)
    src = str(Path(construct.__file__).resolve().parent.parent)
    code = "import period_index.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="the interpreter was built without its own SHA-256")
def test_a_fresh_cli_import_loads_no_openssl():
    # hashlib loads _hashlib and with it OpenSSL's libcrypto, about 3.5 MB
    # and 3 ms per process; construct hashes with the built-in SHA-256
    src = str(Path(construct.__file__).resolve().parent.parent)
    code = "import period_index.cli, sys; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ------------------------------------------------------ verify and compose


@pytest.fixture(scope="module")
def cert_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("certs")
    cubic = _write_config(tmp, CONFIG_CUBIC, name="cubic.json")
    quad = _write_config(tmp, CONFIG_QUADRATIC, name="quad.json")
    c3, c2 = tmp / "c3.json", tmp / "c2.json"
    assert main(["construct", "--config", cubic, "--out", str(c3)]) == 0
    assert main(["construct", "--config", quad, "--out", str(c2)]) == 0
    return c3, c2


@pytest.mark.parametrize("level", ["5", "8", "9"])
def test_verify_rejects_a_level_that_cannot_certify_at_the_level(tmp_path, capsys, level):
    # read_curve refuses levels outside NORM_LEVELS for certificates as for
    # configurations, before the basis is read at the edited level
    cert = json.loads(_perfbench_workloads().cert_path("3-1").read_text())
    cert["inputs"]["curve"]["level"] = level
    cert["inputs"]["digest"] = content_digest(cert["inputs"]["curve"])
    target = tmp_path / "level.json"
    target.write_text(json.dumps(cert))
    assert main(["verify", str(target)]) == 1
    assert capsys.readouterr().err.startswith("inputs.curve.level: ")


def test_verify_refuses_a_generator_of_unproven_prime_norm(tmp_path, capsys):
    # a prime past psi_12, 1 mod 8, passes the wild congruence at level 2,
    # but is_probable_prime cannot prove it: prime_norm fails
    cert = json.loads(_perfbench_workloads().cert_path("2-1").read_text())
    p = cyclo.PRIME_PROOF_LIMIT + 36
    assert p % 8 == 1
    cert["pair"]["first"]["pi"] = [str(p)]
    target = tmp_path / "unproven.json"
    target.write_text(json.dumps(cert))
    assert main(["verify", str(target)]) == 1
    assert capsys.readouterr().err.startswith("pair.first.conditions.prime_norm: ")


def test_verify_computes_each_local_invariant_once(monkeypatch):
    # the v-row and the v'-order check read the local rows' invariants:
    # 10/12/12/12/24 tame symbols when each was computed again
    calls = [0]
    tame = construct.tame_invariant

    def counted(*args):
        calls[0] += 1
        return tame(*args)

    monkeypatch.setattr(construct, "tame_invariant", counted)
    counts = {}
    for name in ("2-1", "2-2", "3-1", "3-3", "composite"):
        calls[0] = 0
        cert = json.loads(_perfbench_workloads().cert_path(name).read_text())
        assert construct.verify_certificate(cert) == (True, [])
        counts[name] = calls[0]
    assert counts == {"2-1": 8, "2-2": 10, "3-1": 10, "3-3": 10, "composite": 20}


def test_verify_work_budget(monkeypatch):
    # per prime-power certificate: five field norms (the curve's bad
    # modulus, the norms of pi and pi', and the support of the normed
    # pair), one discriminant per curve, and no diff walk when the
    # recorded certificate equals the derived one.  Each valuation took a
    # norm before it read residues at doubling precision (26-31 norms),
    # the singularity check computed the discriminant again, and the diff
    # walked every node (241-305 calls).  Each basis point and each
    # generator is checked on the curve once (the basis was checked twice,
    # by read_curve and make_basis), and the period rows take no power of
    # the first coordinate (one per row, each read for its valuation) and
    # read no valuation: the v-row pins v(first) = 1.  The curve block is
    # hashed once, for the stored digest: the derived block is the same, so
    # its digest is the one already checked (it was hashed again)
    calls = Counter()
    in_period = []
    construct_period = construct._period

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def counted_in_period(key, fn):
        def wrapper(*args):
            calls[key] += bool(in_period)
            return fn(*args)
        return wrapper

    def period(*args):
        in_period.append(True)
        try:
            return construct_period(*args)
        finally:
            in_period.pop()

    power = counted_in_period("__pow__ in _period", cyclo.CycloElem.__pow__)
    unit = counted_in_period("valuation_and_unit in _period", localfield.valuation_and_unit)
    norm = counted("field_norm", cyclo.field_norm)
    for mod in (cyclo, construct, ecq, kummer, localfield, sieve):
        if getattr(mod, "field_norm", None) is cyclo.field_norm:
            monkeypatch.setattr(mod, "field_norm", norm)
    monkeypatch.setattr(ecq.CurveL, "discriminant", counted("discriminant", ecq.CurveL.discriminant))
    monkeypatch.setattr(ecq.CurveL, "on_curve", counted("on_curve", ecq.CurveL.on_curve))
    monkeypatch.setattr(construct, "_diff", counted("_diff", construct._diff))
    monkeypatch.setattr(construct, "content_digest", counted("content_digest", construct.content_digest))
    monkeypatch.setattr(construct, "_period", period)
    monkeypatch.setattr(cyclo.CycloElem, "__pow__", power)
    monkeypatch.setattr(localfield, "valuation_and_unit", unit)
    for name in ("2-1", "2-2", "3-1", "3-3", "composite"):
        calls.clear()
        cert = json.loads(_perfbench_workloads().cert_path(name).read_text())
        parts = cert["parts"] if name == "composite" else [cert]
        points = sum(2 + len(part["inputs"]["curve"]["mw_generators"]) for part in parts)
        assert construct.verify_certificate(cert) == (True, [])
        assert calls["field_norm"] <= 5 * len(parts), (name, calls)
        assert calls["discriminant"] == len(parts), (name, calls)
        assert calls["_diff"] == 0, (name, calls)
        assert calls["on_curve"] == points, (name, calls)
        assert calls["__pow__ in _period"] == 0, (name, calls)
        assert calls["valuation_and_unit in _period"] == 0, (name, calls)
        assert calls["content_digest"] == len(parts), (name, calls)


@pytest.mark.parametrize("name, path, value, walked", [
    ("3-3", "obstruction.unit_rows[0].place.root", "657", 6),
    ("3-3", "class.normed_pair.first[1]", "-20438", 5),
    ("composite", "parts[1].summary.index", "10", 3),
])
def test_verify_diff_walks_only_the_edited_path(monkeypatch, name, path, value, walked):
    # a single-leaf edit is diffed down its own path and nowhere else: one
    # _diff call per object on the way, the root of the certificate (for
    # the composite, of its edited part) to the leaf.  The diff walked
    # every node, 290 calls on each mutant of cert-3-3
    calls = Counter()
    diff = construct._diff

    def counted(*args):
        calls["_diff"] += 1
        return diff(*args)

    monkeypatch.setattr(construct, "_diff", counted)
    cert = json.loads(_perfbench_workloads().cert_path(name).read_text())
    _set_path(cert, path, value)
    ok, trace = construct.verify_certificate(cert)
    assert not ok and [line[0] for line in trace] == [path]
    assert calls["_diff"] == walked


@pytest.mark.parametrize("name", ["2-1", "2-2", "3-1", "3-3", "composite"])
def test_verify_rejects_true_written_as_1(tmp_path, capsys, name):
    # true and the JSON integer 1 are equal in Python, not in a
    # certificate: each true leaf set to 1 exits 1 naming the leaf
    cert = json.loads(_perfbench_workloads().cert_path(name).read_text())
    paths = [path for path, value in _leaf_paths(cert) if value is True]
    assert len(paths) >= 9
    target = tmp_path / "one.json"
    for path in paths:
        mutant = copy.deepcopy(cert)
        _set_path(mutant, path, 1)
        target.write_text(json.dumps(mutant))
        assert main(["verify", str(target)]) == 1, path
        assert _trace_names(capsys.readouterr().err, path), path


def test_verify_fresh_certificate(cert_paths, capsys):
    c3, _ = cert_paths
    assert main(["verify", str(c3)]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_verify_tampered_certificate(cert_paths, tmp_path, capsys):
    c3, _ = cert_paths
    cert = json.loads(c3.read_text())
    row = cert["obstruction"]["local_rows"][0]
    row["invariant"] = "1/3" if row["invariant"] != "1/3" else "2/3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert main(["verify", str(bad)]) == 1
    assert "local_rows[0]" in capsys.readouterr().err


def test_verify_truncated_file(cert_paths, tmp_path, capsys):
    c3, _ = cert_paths
    stub = tmp_path / "stub.json"
    stub.write_text(c3.read_text()[:100])
    assert main(["verify", str(stub)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_an_integer_literal_past_the_digit_limit_names_the_file(cert_paths, tmp_path, capsys, command):
    # json.load raises a plain ValueError, not a JSONDecodeError, on an
    # integer literal past the digit limit and on a float: exit 2 naming
    # the file, as for a file that is not JSON
    _, c2 = cert_paths
    base = json.loads(c2.read_text()) if command == "verify" else CONFIG_CUBIC
    target = tmp_path / "literal.json"
    argv = ["verify", str(target)] if command == "verify" else ["construct", "--config", str(target)]
    for literal, says in ((HUGE, "digits"), ("1.5", "floating point literal '1.5'")):
        target.write_text(json.dumps(dict(base, extra=0)).replace('"extra": 0', '"extra": ' + literal))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s is not valid JSON: " % target), literal
        assert says in err


def test_compose_needs_the_jacobian_flag(cert_paths, tmp_path, capsys):
    c3, c2 = cert_paths
    out = tmp_path / "comp.json"
    assert main(["compose", str(c3), str(c2), "--out", str(out)]) == 2
    # the refusal names the flag, not the keyword of compose_coprime
    assert capsys.readouterr().err == (
        "error: certificates concern different curves; pass --allow-different-jacobians "
        "to combine them anyway\n"
    )
    assert (
        main(
            [
                "compose",
                str(c3),
                str(c2),
                "--out",
                str(out),
                "--allow-different-jacobians",
            ]
        )
        == 0
    )
    assert "period=6 index=18" in capsys.readouterr().out
    assert main(["verify", str(out)]) == 0


def _compose_edited(cert_paths, tmp_path, side, edit):
    """Run compose with one part edited; (exit code, output written)."""
    paths = [str(p) for p in cert_paths]
    cert = json.loads(cert_paths[side].read_text())
    edit(cert)
    paths[side] = str(tmp_path / "edited.json")
    (tmp_path / "edited.json").write_text(json.dumps(cert))
    out = tmp_path / "comp.json"
    code = main(["compose", *paths, "--out", str(out), "--allow-different-jacobians"])
    return code, out.exists()


def test_compose_rejects_a_part_without_summary(cert_paths, tmp_path, capsys):
    code, written = _compose_edited(cert_paths, tmp_path, 1, lambda c: c.pop("summary"))
    assert (code, written) == (1, False)
    err = capsys.readouterr().err
    assert err.startswith("parts[1]: ") and "missing ['summary']" in err
    assert "parts[0]" not in err


def test_compose_rejects_a_part_with_period_zero(cert_paths, tmp_path, capsys):
    def edit(cert):
        cert["summary"]["period"] = "0"

    code, written = _compose_edited(cert_paths, tmp_path, 0, edit)
    assert (code, written) == (1, False)
    err = capsys.readouterr().err
    assert "parts[0].summary.period:" in err and "share a factor" not in err


def test_compose_traces_a_part_as_verify_does(tmp_path, capsys):
    # compose verifies each part as verify does inside the composite, so
    # its trace lines are verify's: a coefficient edit of parts[1] with its
    # digest recomputed names the model as parts[1].inputs.curve.coefficients,
    # and a diff of parts[0] names the inputs it reads inside parts[0]
    cert = json.loads(_perfbench_workloads().cert_path("composite").read_text())
    part = cert["parts"][1]
    part["inputs"]["curve"]["coefficients"][0][0] = "1"
    part["inputs"]["digest"] = content_digest(part["inputs"]["curve"])
    cert["parts"][0]["obstruction"]["local_rows"][0]["invariant"] = "3/4"
    paths = []
    for name, value in (("composite", cert), ("left", cert["parts"][0]), ("right", part)):
        paths.append(tmp_path / ("%s.json" % name))
        paths[-1].write_text(json.dumps(value))
    assert main(["verify", str(paths[0])]) == 1
    verified = capsys.readouterr().err.splitlines()
    assert main(["compose", str(paths[1]), str(paths[2]), "--allow-different-jacobians"]) == 1
    composed = capsys.readouterr().err.splitlines()
    assert composed == verified
    assert any(line.endswith("given by parts[1].inputs.curve.coefficients") for line in composed)
    assert any(line.startswith("parts[0].obstruction.local_rows[0].invariant: ")
               and " from parts[0].context.n, " in line for line in composed)


# a certificate body that names no curve, of a kind the program no longer has
NO_CURVE = {
    "schema": construct.SCHEMA,
    "kind": "trivial",
    "summary": {"period": "1", "index": "1", "places": []},
    "lichtenbaum_ok": True,
}


def test_a_certificate_that_names_no_curve_never_verifies(tmp_path, capsys):
    # a certificate proves a claim about the curve it names: a body that
    # names none is rejected at its kind, on its own, written over each
    # acceptance certificate, as a composite's part and as a compose input
    wl = _perfbench_workloads()
    unknown = "unknown certificate kind 'trivial'\n"
    for name in ("no-curve",) + wl.CERTS:
        target = tmp_path / ("cert-%s.json" % name)
        target.write_text(json.dumps(NO_CURVE))
        assert main(["verify", str(target)]) == 1
        assert capsys.readouterr().err == "kind: " + unknown
    composite = json.loads(wl.cert_path("composite").read_text())
    composite["parts"][1] = NO_CURVE
    target = tmp_path / "composite.json"
    target.write_text(json.dumps(composite))
    assert main(["verify", str(target)]) == 1
    assert capsys.readouterr().err == "parts[1].kind: " + unknown
    out = tmp_path / "composed.json"
    for i in (0, 1):
        pair = [str(wl.cert_path("3-3"))] * 2
        pair[i] = str(tmp_path / "cert-no-curve.json")
        assert main(["compose", *pair, "--out", str(out), "--allow-different-jacobians"]) == 1
        assert capsys.readouterr().err == "parts[%d].kind: " % i + unknown
    assert not out.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["construct", "compose", "verify"])
def test_json_constants_are_rejected_like_floats(cert_paths, tmp_path, capsys, command, constant):
    # json reads NaN and Infinity as floats; like a float literal they
    # make the file invalid JSON (exit 2), never a run that ignores them
    c3, c2 = cert_paths
    base = json.loads(c2.read_text()) if command in ("compose", "verify") else CONFIG_QUADRATIC
    target = tmp_path / "constant.json"
    target.write_text(json.dumps(dict(base, note=0)).replace('"note": 0', '"note": ' + constant))
    argv = {
        "construct": ["construct", "--config", str(target), "--out", str(tmp_path / "c.json")],
        "compose": ["compose", str(c3), str(target), "--allow-different-jacobians"],
        "verify": ["verify", str(target)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s is not valid JSON: " % target)
    assert constant in captured.err and captured.out == ""


def test_a_certificate_on_stdout_is_the_whole_of_stdout(cert_paths, tmp_path, capsys):
    # without a path the claims line goes to stderr, so stdout parses as
    # the certificate and verifies
    cfg = _write_config(tmp_path, CONFIG_QUADRATIC)
    runs = [
        (["construct", "--config", cfg], "period=2 index=2 places=(17, 41)\n"),
        (["compose", *map(str, cert_paths), "--allow-different-jacobians"],
         "period=6 index=18 places=(757, 13879, 17, 41)\n"),
    ]
    for argv, claims in runs:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == claims
        target = tmp_path / "stdout.json"
        target.write_text(captured.out)
        assert json.loads(captured.out)["summary"]["period"] == claims[7]
        assert main(["verify", str(target)]) == 0
        assert capsys.readouterr().out == "certificate ok\n"


# edits of a leaf to another JSON type or to an out-of-range number
TYPE_EDITS = ("1/2", "-1", "0", [], {}, None, 7)


def _verify_names(mutant, path, tmp_path, capsys) -> bool:
    target = tmp_path / "mutant.json"
    target.write_text(json.dumps(mutant))
    code = main(["verify", str(target)])
    return code == 1 and _trace_names(capsys.readouterr().err, path)


def _rejected_by_name(cert, path, value, tmp_path, capsys) -> bool:
    mutant = json.loads(json.dumps(cert))
    _set_path(mutant, path, value)
    return _verify_names(mutant, path, tmp_path, capsys)


NUMBER_PATHS = (
    "context.n",
    "context.ell",
    "pair.first.pi[0]",
    "pair.first.conditions.generators_divisible.witnesses[0][1][0]",
    "inputs.curve.level",
    "inputs.curve.coefficients[3][0]",
    "inputs.curve.torsion_basis.T.x[0]",
)
# same-value respellings of a canonical number string: verify reads each,
# and the diff against the canonical rewrite rejects it at its field
RESPELL = {
    "space": lambda v: " " + v,
    "zero": lambda v: re.sub(r"^(-?)", r"\g<1>0", v),
    "int": int,
}


@pytest.mark.parametrize(
    "path, spelling",
    [pytest.param(p, None, id=p) for p in NUMBER_PATHS]
    + [pytest.param(p, s, id="%s-%s" % (p, s)) for p in NUMBER_PATHS for s in RESPELL],
)
def test_verify_names_a_number_past_the_digit_limit(cert_paths, tmp_path, capsys, path, spelling):
    # the trace names the field, not "certificate: check failed", for a
    # number past the limit and for a respelled one alike; an edit inside
    # the curve block carries a recomputed digest
    _, c2 = cert_paths
    cert = json.loads(c2.read_text())
    old = dict(_leaf_paths(cert))[path]
    _set_path(cert, path, HUGE if spelling is None else RESPELL[spelling](old))
    cert["inputs"]["digest"] = content_digest(cert["inputs"]["curve"])
    target = tmp_path / "huge.json"
    target.write_text(json.dumps(cert))
    assert main(["verify", str(target)]) == 1
    assert capsys.readouterr().err.startswith(path + ": ")


def test_verify_rejects_a_witness_coordinate_below_zero(cert_paths, tmp_path, capsys):
    # x - p names the residue x and reads as an integer, but a residue
    # point's coordinates lie in [0, p): the witness check rejects it
    for cert_path in cert_paths:
        cert = json.loads(cert_path.read_text())
        first = cert["pair"]["first"]
        witnesses = first["conditions"]["generators_divisible"]["witnesses"]
        i, W = next((i, w) for i, (_, w) in enumerate(witnesses) if w != "infinity")
        W[0] = str(int(W[0]) - int(first["p"]))
        path = "pair.first.conditions.generators_divisible.witnesses[%d][1][0]" % i
        assert _verify_names(cert, path, tmp_path, capsys), cert_path.name


def test_verify_names_every_edited_leaf(cert_paths, tmp_path, capsys):
    # every leaf of the (2, 1) certificate under the tamper gate's edit and
    # each type edit: exit 1 with a trace naming the field, never another
    # exit code or a traceback
    _, c2 = cert_paths
    cert = json.loads(c2.read_text())
    tried, missed = 0, []
    for path, old in _leaf_paths(cert):
        for value in (_perturb(old),) + TYPE_EDITS:
            if value == old:
                continue
            tried += 1
            if not _rejected_by_name(cert, path, value, tmp_path, capsys):
                missed.append((path, value))
    assert tried > 1000
    assert not missed


def test_verify_names_every_edited_torsion_basis_leaf(tmp_path, capsys):
    # every leaf of the curve block (level, coefficients, the torsion
    # basis read at the auxiliary prime, the generators and the stable
    # order) in the four prime-power acceptance certificates and in both
    # parts of the composite, under the tamper gate's edit and each type
    # edit, with the digest recomputed: exit 1 with a trace naming the
    # field or an object enclosing it, and none verifies.  The same edits
    # of the three certificates off the acceptance gate, built in process
    # as tests/verify_scan.py builds them: 549 more
    wl = _perfbench_workloads()
    certs = {name: json.loads(wl.cert_path(name).read_text()) for name in wl.CERTS}
    certs.update(_off_gate(wl, construct))
    tried, missed, accepted = 0, [], []
    for name, cert in certs.items():
        prefixes = ["parts[0].", "parts[1]."] if cert["kind"] == "composite" else [""]
        for prefix in prefixes:
            inputs = dict(_leaf_paths(cert))
            for path, old in inputs.items():
                if not path.startswith(prefix + "inputs.curve."):
                    continue
                for value in (_perturb(old),) + TYPE_EDITS:
                    if value == old:
                        continue
                    mutant = json.loads(json.dumps(cert))
                    _set_path(mutant, path, value)
                    part = mutant["parts"][int(prefix[6])] if prefix else mutant
                    part["inputs"]["digest"] = content_digest(part["inputs"]["curve"])
                    tried += 1
                    target = tmp_path / "mutant.json"
                    target.write_text(json.dumps(mutant))
                    code = main(["verify", str(target)])
                    err = capsys.readouterr().err
                    if code == 0:
                        accepted.append((name, path, value))
                    elif not (code == 1 and _trace_names(err, path)):
                        missed.append((name, path, value))
    assert tried == 1036 + 549
    assert missed == []
    # at level 2 every basis of E[2] gives the same derived sections, so
    # moving S or T of (2, 1) to the third point of order 2, (-1, 0),
    # verified until make_basis pinned the order of the points
    assert accepted == []


def test_verify_names_every_edited_leaf_of_the_cubic(cert_paths, tmp_path, capsys):
    # the (3, 3) certificate carries a non-identity Galois action, so its
    # class and obstruction sections are derived from a real representation
    c3, _ = cert_paths
    cert = json.loads(c3.read_text())
    leaves = _leaf_paths(cert)
    missed = [
        path for path, old in leaves
        if not _rejected_by_name(cert, path, _perturb(old), tmp_path, capsys)
    ]
    assert len(leaves) > 150
    assert not missed


def test_verify_names_edited_composite_parts(cert_paths, tmp_path, capsys):
    c3, c2 = cert_paths
    out = tmp_path / "comp.json"
    argv = ["compose", str(c3), str(c2), "--out", str(out), "--allow-different-jacobians"]
    assert main(argv) == 0
    cert = json.loads(out.read_text())
    cases = [("parts[%d].inputs.digest" % i, v) for i in (0, 1) for v in ([], {})]
    cases += [
        ("parts[%d].summary.%s" % (i, key), v)
        for i in (0, 1)
        for key in ("period", "index")
        for v in ("0", "-1")
    ]
    missed = [
        (path, v) for path, v in cases if not _rejected_by_name(cert, path, v, tmp_path, capsys)
    ]
    assert not missed


_UNQUALIFIED = re.compile(r"(?<![\w.\]])inputs\.")


def test_composite_messages_name_qualified_inputs():
    # a part's message that names one of its own inputs names it inside
    # the composite too: the coefficient edit that moves the basis off the
    # curve, then every curve-block leaf of both parts under the tamper
    # gate's edit and each type edit, with the part's digest recomputed
    cert = json.loads(_perfbench_workloads().cert_path("composite").read_text())
    mutant = json.loads(json.dumps(cert))
    part = mutant["parts"][0]
    part["inputs"]["curve"]["coefficients"][0][0] = "1"
    part["inputs"]["digest"] = content_digest(part["inputs"]["curve"])
    ok, trace = construct.verify_certificate(mutant)
    given = "not on the curve given by parts[0].inputs.curve.coefficients"
    assert not ok and any(msg.endswith(given) for _, msg in trace), trace
    tried, unqualified = 0, []
    for path, old in _leaf_paths(cert):
        if not re.match(r"parts\[\d\]\.inputs\.curve\.", path):
            continue
        for value in (_perturb(old),) + TYPE_EDITS:
            if value == old:
                continue
            mutant = json.loads(json.dumps(cert))
            _set_path(mutant, path, value)
            part = mutant["parts"][int(path[6])]
            part["inputs"]["digest"] = content_digest(part["inputs"]["curve"])
            tried += 1
            _, trace = construct.verify_certificate(mutant)
            unqualified += [(path, value, msg) for _, msg in trace if _UNQUALIFIED.search(msg)]
    assert tried > 300
    assert unqualified == []


def _is_field(cert, path: str) -> bool:
    """Whether path, dotted with [i] indices, names a node of cert."""
    node = cert
    for token in re.findall(r"[^.\[\]]+|\[\d+\]", path):
        if token.startswith("["):
            if not (isinstance(node, list) and int(token[1:-1]) < len(node)):
                return False
            node = node[int(token[1:-1])]
        elif isinstance(node, dict) and token in node:
            node = node[token]
        else:
            return False
    return True


def test_every_path_a_trace_names_is_a_certificate_field(monkeypatch):
    # the field each hard check derives and the indexed inputs it reads,
    # while verify checks the four prime-power acceptance certificates,
    # and the inputs of every section in _SECTIONS are fields of those
    # certificates: a renamed section or field cannot leave a trace line
    # that names a field that does not exist
    wl = _perfbench_workloads()
    certs = {name: json.loads(wl.cert_path(name).read_text()) for name in wl.CERTS}
    prime_power = [name for name, cert in certs.items() if cert["kind"] == "prime-power"]
    named, checking = {}, []  # path -> the certificates it must be a field of
    lemma = construct._lemma

    def recorded(holds, msg, field, *indexed):
        for path in (field,) + indexed:
            named.setdefault(path, set()).add(checking[-1])
        return lemma(holds, msg, field, *indexed)

    monkeypatch.setattr(construct, "_lemma", recorded)
    for name in prime_power:
        checking.append(name)
        assert construct.verify_certificate(certs[name]) == (True, [])
    for _, reads in construct._SECTIONS.values():
        for path in reads:
            named.setdefault(path, set()).update(prime_power)
    missing = [
        (path, name) for path, names in sorted(named.items()) for name in sorted(names)
        if not _is_field(certs[name], path)
    ]
    assert len(named) > 30
    assert missing == []


def _objects(obj, path=""):
    """(path, object) for every JSON object in obj, obj itself included."""
    if isinstance(obj, dict):
        yield path, obj
        items = obj.items()
    elif isinstance(obj, list):
        items = (("[%d]" % i, v) for i, v in enumerate(obj))
    else:
        return
    for key, value in items:
        sub = path + key if key.startswith("[") else ("%s.%s" % (path, key) if path else key)
        yield from _objects(value, sub)


def test_verify_names_every_deleted_key(cert_paths, tmp_path, capsys):
    # a deleted key is named at <object>.<key>, top-level keys included
    _, c2 = cert_paths
    cert = json.loads(c2.read_text())
    tried, missed = 0, []
    for path, obj in list(_objects(cert)):
        for key in list(obj):
            mutant = json.loads(json.dumps(cert))
            target = dict(_objects(mutant))[path]
            del target[key]
            tried += 1
            key_path = "%s.%s" % (path, key) if path else key
            if not _verify_names(mutant, key_path, tmp_path, capsys):
                missed.append(key_path)
    assert tried > 50
    assert not missed


def test_verify_names_every_inserted_key(cert_paths, tmp_path, capsys):
    # an unexpected key is named at <object>.<key>, in every object
    _, c2 = cert_paths
    cert = json.loads(c2.read_text())
    tried, missed = 0, []
    for path, _ in list(_objects(cert)):
        mutant = json.loads(json.dumps(cert))
        dict(_objects(mutant))[path]["extra"] = "0"
        tried += 1
        key_path = "%s.extra" % path if path else "extra"
        if not _verify_names(mutant, key_path, tmp_path, capsys):
            missed.append(key_path)
    assert tried > 20
    assert not missed
