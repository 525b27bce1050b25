"""Inputs, operations and verdicts shared by the benchmark and its input generator.

An operation is one in-process call of ``period_index.cli.main``: one
``construct``, one ``verify`` of a certificate, or one ``verify`` of a
mutant.  Only ``import_program`` imports ``period_index``; the rest takes
``main`` as an argument.
"""

from __future__ import annotations

import copy
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
# Run-time scratch (input files the CLI reads, certificates it writes,
# results files).  Lives in the checkout and is ignored by git.
WORK = ROOT / ".perfbench"

BOUND = "100000"

_CUBIC = {
    "curve": {
        "level": "3",
        "coefficients": ["0", "0", "1", "0", "0"],
        "torsion_basis": {"S": {"x": "0", "y": "0"}, "T": {"x": "-1", "y": ["0", "1"]}},
        "mw_generators": [{"x": "0", "y": "0"}],
        "stable_subgroup_order": "3",
    },
    "parameters": {"n": "3", "ell": "1", "mode": "B"},
    "bounds": {"prime_bound": BOUND},
}

_QUADRATIC = {
    "curve": {
        "level": "2",
        "coefficients": ["0", "0", "0", "-1", "0"],
        "torsion_basis": {"S": {"x": "0", "y": "0"}, "T": {"x": "1", "y": "0"}},
        "mw_generators": [{"x": "0", "y": "0"}, {"x": "1", "y": "0"}],
        "stable_subgroup_order": "2",
    },
    "parameters": {"n": "2", "ell": "1", "mode": "A"},
    "bounds": {"prime_bound": BOUND},
}

# y^2 = x^3 + 7x^2 - 144x over Q(i), carrying the order-4 point (24, 120):
# the level-2 target is certified through the doubled level-4 route.
_QUARTIC = {
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


def _with_ell(cfg: dict, ell: str) -> dict:
    out = copy.deepcopy(cfg)
    out["parameters"]["ell"] = ell
    return out


# The acceptance configurations, keyed "n-ell".
CONFIGS = {
    "3-1": _CUBIC,
    "3-3": _with_ell(_CUBIC, "3"),
    "2-1": _QUADRATIC,
    "2-2": _QUARTIC,
}
DIRECT = ("3-1", "3-3", "2-1")
DOUBLED = ("2-2",)
# The five acceptance certificates; the composite is compose(2-2, 3-3).
CERTS = ("3-1", "3-3", "2-1", "2-2", "composite")
COMPOSE = ("2-2", "3-3")


def cert_path(name: str) -> Path:
    return INPUTS / ("cert-%s.json" % name)


def mutants_path() -> Path:
    return INPUTS / "mutants.json"


def config_text(name: str, rng) -> str:
    """The configuration for one acceptance config as the CLI reads it.

    The seed decides the key order of every object and the recorded-only
    ``seed`` field; the mathematics is fixed."""
    cfg = copy.deepcopy(CONFIGS[name])
    cfg["seed"] = str(rng.randrange(10**9))
    return json.dumps(_shuffled(cfg, rng))


def _shuffled(obj, rng):
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffled(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_shuffled(v, rng) for v in obj]
    return obj


# ------------------------------------------------------------------ the CLI


def import_program():
    """Import ``period_index.cli.main`` from the checkout's ``src``.

    Refuses any other copy, so a directory without the program fails."""
    init = SRC / "period_index" / "__init__.py"
    if not init.is_file():
        raise SystemExit("perfbench: %s not found; run from a checkout of the repository" % init)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from period_index import cli

    if Path(cli.__file__).resolve().parent != init.parent.resolve():
        raise SystemExit("perfbench: imported period_index from %s, not %s" % (cli.__file__, SRC))
    return cli.main


def call_cli(main, argv):
    """(exit code or None, stdout, stderr, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:  # a traceback a CLI user would see
            exc = "%s: %s" % (type(e).__name__, e)
    return code, out.getvalue(), err.getvalue(), exc


# ---------------------------------------------------------------- mutations

# Type edits replace a leaf by a value of another JSON type or an
# out-of-range number; semantic edits change a leaf to a nearby value of
# the same type, as the acceptance tamper gate does.
TYPE_EDITS = (
    ("frac", "1/2"),
    ("neg", "-1"),
    ("zero", "0"),
    ("list", []),
    ("dict", {}),
    ("null", None),
    ("int", 7),
)


def perturb(value):
    """The tamper gate's semantic edit of one leaf."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        if value.isdigit():
            return str(int(value) + 1)
        if "/" in value and value.replace("/", "").replace("-", "").isdigit():
            num, den = value.split("/")
            return "%d/%s" % ((int(num) + 1) % max(int(den), 2), den)
        return value + "x"
    return "tampered"


def edit_value(kind: str, old):
    if kind == "semantic":
        return perturb(old)
    return copy.deepcopy(dict(TYPE_EDITS)[kind])


EDIT_KINDS = ("semantic",) + tuple(k for k, _ in TYPE_EDITS)


def leaf_paths(obj, path=""):
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.extend(leaf_paths(v, "%s.%s" % (path, k) if path else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.extend(leaf_paths(v, "%s[%d]" % (path, i)))
    else:
        out.append((path, obj))
    return out


_TOKENS = re.compile(r"[^.\[\]]+|\[\d+\]")


def set_path(obj, path, value):
    tokens = _TOKENS.findall(path)
    cur = obj
    for tok in tokens[:-1]:
        cur = cur[int(tok[1:-1])] if tok.startswith("[") else cur[tok]
    last = tokens[-1]
    cur[int(last[1:-1]) if last.startswith("[") else last] = value


def mutant(cert: dict, path: str, kind: str, old) -> dict:
    out = copy.deepcopy(cert)
    set_path(out, path, edit_value(kind, old))
    return out


def candidates(certs: dict) -> tuple:
    """Every (cert, path, edit) whose edit changes the leaf's JSON value,
    and the number of edits skipped because they would not."""
    out, skipped = [], 0
    for name in CERTS:
        for path, old in leaf_paths(certs[name]):
            for kind in EDIT_KINDS:
                if edit_value(kind, old) == old:
                    skipped += 1
                    continue
                out.append((name, path, kind))
    return out, skipped


_PATHY = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+|\[\d+\])+")


def _covers(candidate: str, path: str) -> bool:
    return path == candidate or path.startswith(candidate + ".") or path.startswith(candidate + "[")


def trace_names(err: str, path: str) -> bool:
    """True when a ``path: message`` trace line names the edited field or
    one of its enclosing objects, as the acceptance tamper gate reads it."""
    for line in err.splitlines():
        head = line.split(": ", 1)[0]
        for cand in [head] + _PATHY.findall(line):
            if _covers(cand, path):
                return True
    return False


def judge_mutant(code, err: str, exc, path: str) -> str:
    """'rejected' (exit 1, trace names the field), 'accepted' (exit 0: the
    edit verified) or 'fault' (anything else: wrong exit code, a trace that
    misses the field, or a raised exception)."""
    if exc is None and code == 1 and trace_names(err, path):
        return "rejected"
    if exc is None and code == 0:
        return "accepted"
    return "fault"


def fault_text(code, err: str, exc) -> str:
    if exc is not None:
        return "raised %s" % exc
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return "exit %s: %s" % (code, last)
