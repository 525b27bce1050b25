"""Tests of the benchmark's own code.

Each independent check accepts the stored certificates and rejects a copy
with one edited witness, prime, generator or claim, and BENCHMARK.json
lists exactly the metrics that run.py prints.

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def certs():
    return {name: json.loads(wl.cert_path(name).read_text()) for name in wl.CERTS}


def _edited(cert, path, value):
    out = copy.deepcopy(cert)
    wl.set_path(out, path, value)
    return out


@pytest.mark.parametrize("name", wl.CERTS)
def test_stored_certificates_pass(certs, name):
    assert checks.check_certificate(certs[name]) == []


def test_trial_division():
    assert [m for m in range(30) if checks.is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert checks.is_prime(25601) and not checks.is_prime(25603 * 3)


def test_norm_forms():
    assert checks.norm(["28", "27"], 3) == 757
    assert checks.norm(["65", "-96"], 4) == 13441
    assert checks.norm(["-17"], 2) == -17


# (certificate, path, new value, the check that must catch it)
EDITS = [
    ("3-3", "summary.index", "3", checks.check_summary),
    ("2-2", "summary.period", "4", checks.check_summary),
    ("3-3", "pair.second.p", "13881", checks.check_primes),
    ("2-1", "pair.first.p", "19", checks.check_primes),
    ("3-1", "pair.second.p", "757", checks.check_primes),
    ("3-3", "pair.first.place.root", "28", checks.check_primes),
    ("3-3", "pair.first.pi[1]", "26", checks.check_norms),
    ("2-2", "pair.second.pi[0]", "2", checks.check_norms),
    ("2-1", "pair.first.pi[0]", "19", checks.check_norms),
    ("3-3", "pair.first.conditions.generators_divisible.witnesses[0][1][0]", "571", checks.check_witnesses),
    ("2-2", "pair.first.conditions.generators_divisible.witnesses[1][1][1]", "6653", checks.check_witnesses),
    ("2-2", "pair.first.conditions.generators_divisible.level", "4", checks.check_witnesses),
    ("3-1", "inputs.curve.mw_generators[0].x", ["1", "0"], checks.check_witnesses),
    ("2-1", "inputs.curve.mw_generators[1].x", ["-1"], checks.check_witnesses),
    ("3-3", "inputs.curve.coefficients[4]", ["1", "0"], checks.check_witnesses),
    ("3-3", "obstruction.descended_rows[0].invariant", "1/3", checks.check_invariants),
    ("2-2", "obstruction.descended_rows[1].p", "13441", checks.check_invariants),
]


@pytest.mark.parametrize("name,path,value,check", EDITS, ids=[e[1] for e in EDITS])
def test_check_rejects_one_edit(certs, name, path, value, check):
    assert check(certs[name]) == []
    bad = _edited(certs[name], path, value)
    assert check(bad) != []
    assert checks.check_certificate(bad) != []


@pytest.mark.parametrize(
    "path,value",
    [
        ("summary.period", "3"),
        ("summary.index", "18"),
        ("parts[1].summary.period", "2"),
        ("parts[0].pair.first.pi[1]", "-95"),
    ],
)
def test_composite_rejects_one_edit(certs, path, value):
    bad = _edited(certs["composite"], path, value)
    assert checks.check_certificate(bad) != []


def test_group_law_orders():
    # y^2 + y = x^3 over F_7: (0, 0) has order 3
    E = checks.CurveModP([0, 0, 1, 0, 0], 7)
    P = (0, 0)
    assert E.on_curve(P) and E.mul(2, P) is not None and E.mul(3, P) is None
    assert E.add(P, E.neg(P)) is None


def test_benchmark_json_lists_the_printed_metrics():
    import run

    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = [name for name, _, _ in run.PER_LAYER] + ["trace_overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer
    assert all(m["unit"] == run._unit(m["name"]) for m in bench["per_layer"])


def test_only_known_fault_mutants_count_as_failed(tmp_path):
    import random

    import run

    crash = (None, "", "", "ZeroDivisionError: u is 0 mod p")
    faults = {tuple(e[:3]) for e in json.loads(wl.mutants_path().read_text())["faults"]}
    ops, _ = run._verify_tamper_round(random.Random(1), tmp_path)
    for op in ops:
        known = tuple(op.label.split()[1:]) in faults
        assert op.judge(*crash) == "failed" if known else op.judge(*crash).startswith("wrong")
        assert op.judge(0, "certificate ok", "", None).startswith("wrong")
    assert sum(tuple(op.label.split()[1:]) in faults for op in ops) == len(faults)
    ops, _ = run._verify_accept_round(random.Random(1), tmp_path)
    ops += run._construct_round(wl.DIRECT, random.Random(1), tmp_path)[0]
    for op in ops:
        assert op.judge(*crash).startswith("wrong")
        assert op.judge(2, "", "bad config", None).startswith("wrong")
