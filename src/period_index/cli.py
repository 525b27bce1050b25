"""Command-line front end.

Three subcommands make the certificate pipeline: full certification
(construct), combination of coprime claims (compose), and independent
re-checking (verify).

Run configurations are JSON with every number exact: decimal integer
strings (plain integers are accepted too) and fraction strings such as
"3/2".  Floats, NaN and Infinity are rejected outright.  Configurations
and certificates are read by the same readers (construct.read_*); an
error names the innermost field and prints as
"error: <field>: <message>".  A configuration gives the curve with its
torsion data, the target (parameters.n, parameters.ell and the mode) and
one search limit, bounds.prime_bound; output is optional and any other
field is ignored.
curve.level is 2, 3 or 4, the levels that can certify
(cyclo.NORM_LEVELS), for configurations and certificates alike
(construct.read_curve).  RunConfig infers only the route kind: direct
when curve.level is parameters.n, doubled when it is twice an even
parameters.n.  construct._preconditions decides the rest of the route
before any prime is scanned.  Certificates are written atomically and
canonically, so reruns with an equal configuration produce
byte-identical files; one written to stdout is all of stdout, its
claims going to stderr.

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
import re
import sys
from contextlib import suppress
from itertools import accumulate
from typing import Optional

from .cyclo import PRIME_PROOF_LIMIT
from .sieve import SieveExhausted
from .construct import (
    InputError,
    LemmaFailure,
    canonical_json,
    certify,
    compose_coprime,
    read_curve,
    read_field,
    read_positive,
    verify_certificate,
)


def _reject_float(text: str):
    raise ValueError("floating point literal %r: all numbers must be exact" % text)


# The deepest nesting of arrays and objects a JSON input may have.  The
# parser counts its nesting against the recursion limit from the caller's
# own stack depth, so without a fixed limit whether a file parses would
# depend on who reads it.  A prime-power certificate nests 8 deep and each
# composition adds 2 (the parts list and a part), so the composite of the
# acceptance certificates nests 10 deep.  256 is far above any of them
# and far below the default recursion limit of 1000, which leaves the
# parser and the readers that walk the parsed value (the diff, the
# canonical JSON of a digest) room for the caller's stack.
MAX_NESTING = 256
# a JSON string, or the unterminated rest of the text, so one pass of
# the pattern is linear in the text
_STRING = re.compile(r'"(?:[^"\\]|\\.?)*(?:"|\Z)', re.S)
_NOT_BRACKET = re.compile(r"[^][{}]+")
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _nesting(text: str) -> int:
    """The deepest nesting of brackets and braces outside the strings of
    JSON text."""
    brackets = _NOT_BRACKET.sub("", _STRING.sub("", text))
    return max(accumulate(map(_STEP.__getitem__, brackets)), default=0)


def _load_json(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
        # no deeper than the number of brackets it opens: most files need no scan
        if text.count("[") + text.count("{") > MAX_NESTING and _nesting(text) > MAX_NESTING:
            raise ValueError("nesting too deep")
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except ValueError as e:  # bad syntax or encoding, too deep, a float, or an integer past the digit limit
        raise InputError("%s is not valid JSON: %s" % (path, e))


# =====================================================================
# Run configuration
# =====================================================================


class RunConfig:
    """Parsed, validated configuration for construct runs.  doubled is
    the route kind: False for curve data at level parameters.n, True for
    data at level 2 * parameters.n, n even."""

    def __init__(self, path: str):
        raw = _load_json(path)
        if not isinstance(raw, dict):
            raise InputError("configuration root of %s must be an object" % path)

        self.curve, self.basis, self.mw_gens = read_curve(read_field(raw, "curve"), "curve", "curve")
        level = self.curve.n

        self.n = read_positive(read_field(raw, "parameters.n"), "parameters.n")
        self.ell = read_positive(read_field(raw, "parameters.ell"), "parameters.ell")
        self.mode = read_field(raw, "parameters.mode", kind=str)
        if level != self.n and (self.n % 2 or level != 2 * self.n):
            raise InputError(
                "curve data at level %d fits neither a direct level-%d run nor a doubled "
                "level-%d run" % (level, self.n, 2 * self.n), "parameters.n",
            )
        self.doubled = level != self.n

        self.prime_bound = read_positive(
            read_field(raw, "bounds.prime_bound"), "bounds.prime_bound"
        )
        if self.prime_bound >= PRIME_PROOF_LIMIT:
            raise InputError("must lie below psi_12, where primality is proved", "bounds.prime_bound")

        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise InputError("expected an object", "output")
        self.certificate_path = out.get("certificate")
        if "certificate" in out and not (isinstance(self.certificate_path, str) and self.certificate_path):
            raise InputError("expected a non-empty path string", "output.certificate")


# =====================================================================
# Helpers
# =====================================================================


def _write_atomic(path: str, text: str, field: str):
    """Write text to path through a temporary file beside it; a path that
    cannot be written is an input error at field, and leaves no file."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        with suppress(OSError):
            os.remove(tmp)
        raise InputError("cannot write %s: %s" % (path, e.strerror or e), field)


def _emit(cert: dict, path: Optional[str], field: str) -> int:
    """Write the certificate to path, named by field, and print its claims;
    without a path the certificate is the whole of stdout and the claims
    go to stderr."""
    text = canonical_json(cert)
    if path is not None:
        _write_atomic(path, text, field)
    else:
        sys.stdout.write(text)
    sm = cert["summary"]
    claims = "period=%s index=%s places=(%s)" % (sm["period"], sm["index"], ", ".join(sm["places"]))
    print(claims, file=sys.stdout if path is not None else sys.stderr)
    return 0


# =====================================================================
# Subcommands
# =====================================================================


# the configuration field each certificate path of a route hypothesis
# comes from; inputs.curve.* maps to curve.*
_CONFIG_FIELDS = {
    "context.n": "parameters.n",
    "context.ell": "parameters.ell",
    "context.mode": "parameters.mode",
}


def _config_field(path: str) -> str:
    if path.startswith("inputs.curve."):
        return path[len("inputs."):]
    return _CONFIG_FIELDS.get(path, path)


def cmd_construct(args) -> int:
    cfg = RunConfig(args.config)
    try:
        cert = certify(cfg.curve, cfg.basis, cfg.mw_gens, cfg.prime_bound, mode=cfg.mode,
                       doubled=cfg.doubled, target_n=cfg.n, target_ell=cfg.ell)
    except InputError as e:
        # a route hypothesis names certificate paths; blame the first one's
        # configuration field
        if not e.paths:
            raise
        raise InputError(str(e), _config_field(e.paths[0]))
    if args.out is None:
        return _emit(cert, cfg.certificate_path, "output.certificate")
    return _emit(cert, args.out, "--out")


def cmd_compose(args) -> int:
    left = _load_json(args.left)
    right = _load_json(args.right)
    # each part is traced as verify traces it inside the composite
    traces = [verify_certificate(part, "parts[%d]" % i)[1] for i, part in enumerate((left, right))]
    for path, msg in traces[0] + traces[1]:
        print("%s: %s" % (path, msg), file=sys.stderr)
    if any(traces):
        return 1
    cert = compose_coprime(left, right, allow_different_jacobians=args.allow_different_jacobians)
    return _emit(cert, args.out, "--out")


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


def _out_path(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="period-index",
        description="Construct and verify period/index certificates for genus-one classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build and write a certificate")
    pc.add_argument("--config", required=True)
    pc.add_argument("--out", type=_out_path, help="override the certificate path from the config")
    pc.set_defaults(func=cmd_construct)

    pm = sub.add_parser("compose", help="combine certificates with coprime periods")
    pm.add_argument("left")
    pm.add_argument("right")
    pm.add_argument("--out", type=_out_path)
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
        # an input error names its first field
        at = "%s: " % e.paths[0] if getattr(e, "paths", None) else ""
        print("error: %s%s" % (at, e), file=sys.stderr)
        return 2
    except SieveExhausted as e:
        print("search exhausted: %s" % e, file=sys.stderr)
        return 3
    except LemmaFailure as e:
        print("internal inconsistency: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
