"""Command-line front end.

Subcommands cover each pipeline stage: symbol tables (hilbert), the
norm of a twisted class (norm-twist), the prime search on its own
(sieve), full certification (construct), combination of coprime claims
(compose), and independent re-checking (verify).

Run configurations are JSON with every number exact: decimal integer
strings (plain integers are accepted too) and fraction strings such as
"3/2".  Floats are rejected outright.  Certificates are written
atomically and canonically, so reruns with an equal configuration
produce byte-identical files.

Exit codes: 0 success; 1 verification failure; 2 malformed input or
unmet hypotheses; 3 search bounds exhausted (histogram on stderr);
4 internal inconsistency (a guaranteed check failed — a bug signal,
never a legitimate mathematical outcome).  verify answers 0 or 1 for
any JSON file and 2 only when the file cannot be read or parsed;
compose verifies both inputs first and answers 1 if either fails."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import lcm
from typing import Optional

from .cyclo import CycloElem, context
from .ecq import curve_over
from .kummer import make_basis, twisted_norm, galois_representation
from .localfield import (
    archimedean_invariant,
    distinguished_place,
    factorint,
    invariant_order,
    tame_invariant,
)
from .sieve import SieveExhausted, find_pair
from .construct import (
    _COEFF_RE,
    InputError,
    LemmaFailure,
    canonical_json,
    certify_mode_A,
    certify_mode_B,
    compose_coprime,
    elem_coeffs,
    even_adjust,
    verify_certificate,
)


class ConfigError(ValueError):
    """Malformed run configuration; the message names the field."""


# =====================================================================
# Exact JSON
# =====================================================================


def _reject_float(text: str):
    raise ConfigError("floating point literal %r: all numbers must be exact" % text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_reject_float)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("%s is not valid JSON: %s" % (path, e))


def _as_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise ConfigError("%s: expected an integer, found a boolean" % field)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ConfigError("%s: expected an exact integer, found %r" % (field, value))


def _as_positive(value, field: str) -> int:
    k = _as_int(value, field)
    if k < 1:
        raise ConfigError("%s: expected a positive integer, found %d" % (field, k))
    return k


def _as_coeff(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError("%s: expected a rational, found a boolean" % field)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _COEFF_RE.match(value.strip()):
        return Fraction(value.strip())
    raise ConfigError("%s: expected an exact rational such as \"-3/2\", found %r" % (field, value))


def _as_elem(level: int, value, field: str) -> CycloElem:
    deg = context(level).degree
    if isinstance(value, (int, str)):
        value = [value]
    if not isinstance(value, list) or not 1 <= len(value) <= deg:
        raise ConfigError(
            "%s: expected at most %d exact coordinates for level %d" % (field, deg, level)
        )
    coeffs = [_as_coeff(c, "%s[%d]" % (field, i)) for i, c in enumerate(value)]
    coeffs += [Fraction(0)] * (deg - len(coeffs))
    return CycloElem(level, coeffs)


def _as_point(level: int, value, field: str):
    if value == "infinity" or value is None:
        return None
    if isinstance(value, dict) and set(value) == {"x", "y"}:
        return (
            _as_elem(level, value["x"], field + ".x"),
            _as_elem(level, value["y"], field + ".y"),
        )
    if isinstance(value, list) and len(value) == 2:
        return (
            _as_elem(level, value[0], field + "[0]"),
            _as_elem(level, value[1], field + "[1]"),
        )
    raise ConfigError("%s: expected a point ({x, y}, [x, y], or \"infinity\")" % field)


def _get(obj, key, field: str, kind=dict):
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError("missing field %s" % field)
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError("%s: wrong type" % field)
    return value


# =====================================================================
# Run configuration
# =====================================================================


class RunConfig:
    """Parsed, validated configuration for sieve/construct runs."""

    def __init__(self, path: str):
        raw = _load_json(path)
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be an object")

        cb = _get(raw, "curve", "curve")
        self.level = _as_int(_get(cb, "level", "curve.level", None), "curve.level")
        try:
            context(self.level)
        except ValueError as e:
            raise ConfigError("curve.level: %s" % e)
        coeffs = _get(cb, "coefficients", "curve.coefficients", list)
        if len(coeffs) != 5:
            raise ConfigError("curve.coefficients: expected five model coefficients")
        try:
            parsed = [
                _as_elem(self.level, c, "curve.coefficients[%d]" % i)
                for i, c in enumerate(coeffs)
            ]
            self.curve = curve_over(self.level, parsed)
        except ValueError as e:
            raise ConfigError("curve.coefficients: %s" % e)
        tb = _get(cb, "torsion_basis", "curve.torsion_basis")
        S = _as_point(self.level, _get(tb, "S", "curve.torsion_basis.S", None), "curve.torsion_basis.S")
        T = _as_point(self.level, _get(tb, "T", "curve.torsion_basis.T", None), "curve.torsion_basis.T")
        try:
            self.basis = make_basis(self.curve, self.level, S, T)
        except (ValueError, ArithmeticError) as e:
            raise ConfigError("curve.torsion_basis: %s" % e)
        gens = _get(cb, "mw_generators", "curve.mw_generators", list)
        self.mw_gens = []
        for i, g in enumerate(gens):
            P = _as_point(self.level, g, "curve.mw_generators[%d]" % i)
            if not self.curve.on_curve(P):
                raise ConfigError("curve.mw_generators[%d]: point is not on the curve" % i)
            self.mw_gens.append(P)
        order = _as_int(
            _get(cb, "stable_subgroup_order", "curve.stable_subgroup_order", None),
            "curve.stable_subgroup_order",
        )
        if order != self.level:
            raise ConfigError(
                "curve.stable_subgroup_order: must equal curve.level %d, found %d"
                % (self.level, order)
            )

        pb = _get(raw, "parameters", "parameters")
        self.n = _as_positive(_get(pb, "n", "parameters.n", None), "parameters.n")
        self.ell = _as_positive(_get(pb, "ell", "parameters.ell", None), "parameters.ell")
        self.mode = _get(pb, "mode", "parameters.mode", str)
        if self.mode not in ("A", "B"):
            raise ConfigError("parameters.mode: must be \"A\" or \"B\"")

        bb = _get(raw, "bounds", "bounds")
        self.prime_bound = _as_positive(
            _get(bb, "prime_bound", "bounds.prime_bound", None), "bounds.prime_bound"
        )
        self.coeff_bound: Optional[int] = None
        if bb.get("coeff_bound") is not None:
            self.coeff_bound = _as_positive(bb["coeff_bound"], "bounds.coeff_bound")
        self.unit_window = 1
        if bb.get("unit_window") is not None:
            self.unit_window = _as_int(bb["unit_window"], "bounds.unit_window")

        # the pipeline is deterministic; the seed is accepted for forward
        # compatibility with randomized auxiliary choices and ignored
        self.seed = 0
        if raw.get("seed") is not None:
            self.seed = _as_int(raw["seed"], "seed")

        out = raw.get("output") or {}
        if not isinstance(out, dict):
            raise ConfigError("output: wrong type")
        self.certificate_path = out.get("certificate")
        if self.certificate_path is not None and not isinstance(self.certificate_path, str):
            raise ConfigError("output.certificate: expected a path string")


# =====================================================================
# Helpers
# =====================================================================


def _write_atomic(path: str, text: str):
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt_elem(x: CycloElem) -> str:
    return "[" + ", ".join(elem_coeffs(x)) + "]"


def _fmt_inv(fr: Fraction, level: int) -> str:
    return "%d/%d" % (int(fr * level) % level, level)


def _emit(cert: dict, path: Optional[str]) -> int:
    """Write the certificate to path, or to stdout without one, and print
    its claims."""
    text = canonical_json(cert)
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)
    sm = cert["summary"]
    print(
        "period=%s index=%s places=(%s)" % (sm["period"], sm["index"], ", ".join(sm["places"]))
    )
    return 0


# =====================================================================
# Subcommands
# =====================================================================


def cmd_hilbert(args) -> int:
    n = args.n
    a = _as_elem(n, [c.strip() for c in args.a.split(",")], "-a")
    b = _as_elem(n, [c.strip() for c in args.b.split(",")], "-b")
    if a.is_zero() or b.is_zero():
        raise InputError("symbol arguments must be nonzero")
    rows = []
    if n == 2:
        av, bv = a.rational_value(), b.rational_value()
        odd = sorted(
            q
            for q in set(factorint(av.numerator * av.denominator))
            | set(factorint(bv.numerator * bv.denominator))
            if q % 2 == 1
        )
        for q in sorted(set(odd) | set(args.place or [])):
            rows.append((str(q), tame_invariant(a, b, distinguished_place(2, q))))
        rows.append(("2", _wild_two_adic(av, bv)))
        rows.append(("infinity", archimedean_invariant(av, bv)))
        complete = True
    else:
        if not args.place:
            raise InputError("levels above 2 need explicit --place primes")
        for q in args.place:
            rows.append((str(q), tame_invariant(a, b, distinguished_place(n, q))))
        complete = False
    total = Fraction(0)
    for label, inv in rows:
        total += inv
        print("place %-10s invariant %-8s order %d" % (label, _fmt_inv(inv, n), invariant_order(inv)))
    order = lcm(*(invariant_order(inv) for _, inv in rows)) if rows else 1
    print("global order %d" % order)
    if complete:
        ok = total % 1 == 0
        print("product formula: %s (sum %s)" % ("ok" if ok else "VIOLATED", _fmt_inv(total % 1, n)))
        return 0 if ok else 4
    print("listed sum %s (partial: wild and archimedean rows not inferred)" % _fmt_inv(total % 1, n))
    return 0


def _wild_two_adic(a: Fraction, b: Fraction) -> Fraction:
    """Quadratic symbol additive invariant at the even place.

    With a = 2^alpha u and b = 2^beta v (u, v odd), the exponent is
    eps(u)eps(v) + alpha omega(v) + beta omega(u) mod 2."""

    def split(x: Fraction):
        num = x.numerator * x.denominator  # square-class representative
        alpha = 0
        while num % 2 == 0:
            num //= 2
            alpha += 1
        return alpha, num

    alpha, u = split(a)
    beta, v = split(b)
    eps = lambda w: ((w - 1) // 2) % 2
    omega = lambda w: ((w * w - 1) // 8) % 2
    e = (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)) % 2
    return Fraction(e, 2)


def cmd_norm_twist(args) -> int:
    cfg = RunConfig(args.config)
    a = _as_elem(cfg.level, [c.strip() for c in args.a.split(",")], "-a")
    b = _as_elem(cfg.level, [c.strip() for c in args.b.split(",")], "-b")
    rep = galois_representation(cfg.basis)
    nf = twisted_norm(rep, a, b)
    for label, val in (
        ("c", nf.c),
        ("cprime", nf.cprime),
        ("d", nf.d),
        ("dprime", nf.dprime),
        ("first", nf.first()),
        ("second", nf.second()),
    ):
        print("%-7s %s" % (label, _fmt_elem(val)))
    return 0


def cmd_sieve(args) -> int:
    cfg = RunConfig(args.config)
    target = cfg.n if cfg.level == 2 * cfg.n else cfg.level
    pair = find_pair(
        cfg.curve,
        cfg.level,
        cfg.prime_bound,
        cfg.mw_gens,
        target,
        cfg.unit_window,
        cfg.coeff_bound,
    )
    print("first  p=%d pi=%s" % (pair.first.p, _fmt_elem(pair.first.pi)))
    print(
        "second p=%d pi=%s residue_order=%d"
        % (pair.second.p, _fmt_elem(pair.second.pi), pair.residue_order)
    )
    for t, o in pair.conjugate_orders:
        print("conjugate t=%d order=%d" % (t, o))
    return 0


def cmd_construct(args) -> int:
    cfg = RunConfig(args.config)
    n, ell, mode = cfg.n, cfg.ell, cfg.mode
    common = dict(
        unit_window=cfg.unit_window,
        coeff_bound=cfg.coeff_bound,
    )
    if cfg.level == n:
        if mode == "A":
            cert = certify_mode_A(cfg.curve, cfg.basis, ell, cfg.mw_gens, cfg.prime_bound, **common)
        else:
            cert = certify_mode_B(cfg.curve, cfg.basis, ell, cfg.mw_gens, cfg.prime_bound, **common)
    elif n % 2 == 0 and cfg.level == 2 * n:
        cert = even_adjust(
            cfg.curve, cfg.basis, n, ell, cfg.mw_gens, cfg.prime_bound, mode=mode, **common
        )
    else:
        raise InputError(
            "curve data at level %d fits neither a direct level-%d run nor "
            "a doubled level-%d run" % (cfg.level, n, 2 * n)
        )
    return _emit(cert, args.out or cfg.certificate_path)


def cmd_compose(args) -> int:
    left = _load_json(args.left)
    right = _load_json(args.right)
    traces = [verify_certificate(part)[1] for part in (left, right)]
    for i, trace in enumerate(traces):
        for path, msg in trace:
            # name paths as verify names them inside the composite
            at = "parts[%d]" % i if path == "certificate" else "parts[%d].%s" % (i, path)
            print("%s: %s" % (at, msg), file=sys.stderr)
    if any(traces):
        return 1
    cert = compose_coprime(left, right, allow_different_jacobians=args.allow_different_jacobians)
    return _emit(cert, args.out)


def cmd_verify(args) -> int:
    cert = _load_json(args.certificate)
    ok, trace = verify_certificate(cert)
    if ok:
        print("certificate ok")
        return 0
    for path, msg in trace:
        print("%s: %s" % (path, msg), file=sys.stderr)
    return 1


# =====================================================================
# Parser
# =====================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="period-index",
        description="Construct and verify period/index certificates for genus-one classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hilbert", help="print a local symbol table")
    ph.add_argument("--n", type=int, required=True, help="symbol level")
    ph.add_argument("-a", required=True, help="first argument (rational or comma-separated coordinates)")
    ph.add_argument("-b", required=True, help="second argument")
    ph.add_argument("--place", type=int, action="append", help="explicit place (repeatable)")
    ph.set_defaults(func=cmd_hilbert)

    pt = sub.add_parser("norm-twist", help="norm factors of a twisted class")
    pt.add_argument("--config", required=True)
    pt.add_argument("-a", required=True)
    pt.add_argument("-b", required=True)
    pt.set_defaults(func=cmd_norm_twist)

    ps = sub.add_parser("sieve", help="search the admissible prime pair only")
    ps.add_argument("--config", required=True)
    ps.set_defaults(func=cmd_sieve)

    pc = sub.add_parser("construct", help="build and write a certificate")
    pc.add_argument("--config", required=True)
    pc.add_argument("--out", help="override the certificate path from the config")
    pc.set_defaults(func=cmd_construct)

    pm = sub.add_parser("compose", help="combine certificates with coprime periods")
    pm.add_argument("left")
    pm.add_argument("right")
    pm.add_argument("--out")
    pm.add_argument("--allow-different-jacobians", action="store_true")
    pm.set_defaults(func=cmd_compose)

    pv = sub.add_parser("verify", help="re-check a certificate from its witnesses")
    pv.add_argument("certificate")
    pv.set_defaults(func=cmd_verify)
    return parser


# built once per process: every call of main parses with the same parser
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SieveExhausted as e:
        print("search exhausted: %s" % e, file=sys.stderr)
        print("histogram: " + e.stats.summary(), file=sys.stderr)
        return 3
    except LemmaFailure as e:
        print("internal inconsistency: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
