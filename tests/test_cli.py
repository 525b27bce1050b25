import json

import pytest

from period_index.cli import main
from test_acceptance import _leaf_paths, _perturb, _set_path, _trace_names

BOUND = "100000"

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


# ---------------------------------------------------------------- hilbert


def test_hilbert_quadratic_table(capsys):
    assert main(["hilbert", "--n", "2", "-a", "2", "-b", "3"]) == 0
    out = capsys.readouterr().out
    assert "place 3" in out and "1/2" in out
    assert "place 2" in out
    assert "place infinity" in out and "0/2" in out
    assert "product formula: ok" in out


def test_hilbert_unit_pair_vanishes(capsys):
    # units at a split place never obstruct
    assert main(["hilbert", "--n", "3", "-a", "4,1", "-b", "2,1", "--place", "7"]) == 0
    out = capsys.readouterr().out
    assert "invariant 0/3" in out


def test_hilbert_needs_places_above_level_two(capsys):
    assert main(["hilbert", "--n", "3", "-a", "2", "-b", "5"]) == 2


def test_hilbert_malformed_rational(capsys):
    assert main(["hilbert", "--n", "2", "-a", "2.5", "-b", "3"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- configs


def test_config_rejects_floats(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"curve": {"level": 3.0}}')
    assert main(["construct", "--config", str(path)]) == 2
    assert "exact" in capsys.readouterr().err


def test_config_diagnostic_names_the_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, parameters__mode="C")
    assert main(["construct", "--config", cfg]) == 2
    assert "parameters.mode" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["1", "6"])
def test_config_blames_an_unsupported_level_on_the_level(tmp_path, capsys, level):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, curve__level=level)
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: curve.level:")


@pytest.mark.parametrize(
    "key, value",
    [
        ("bounds__prime_bound", "0"),
        ("bounds__prime_bound", "-5"),
        ("bounds__coeff_bound", "0"),
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


# -------------------------------------------------------------- construct


def test_construct_writes_and_reports(tmp_path, capsys):
    out = tmp_path / "cert.json"
    cfg = _write_config(tmp_path, CONFIG_CUBIC, output__certificate=str(out))
    assert main(["construct", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "period=3 index=9 places=(757, 13879)" in printed
    cert = json.loads(out.read_text())
    assert cert["summary"]["period"] == "3"


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
    assert "histogram" in err and "scanned=" in err


def test_construct_level_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC, parameters__n="9")
    assert main(["construct", "--config", cfg]) == 2
    assert "neither" in capsys.readouterr().err


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


def test_compose_needs_the_jacobian_flag(cert_paths, tmp_path, capsys):
    c3, c2 = cert_paths
    out = tmp_path / "comp.json"
    assert main(["compose", str(c3), str(c2), "--out", str(out)]) == 2
    assert "different curves" in capsys.readouterr().err
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


def test_norm_twist_prints_trivial_d(cert_paths, tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG_CUBIC)
    assert main(["norm-twist", "--config", cfg, "-a", "28,27", "-b", "82,135"]) == 0
    out = capsys.readouterr().out
    assert "d       [1, 0]" in out


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
