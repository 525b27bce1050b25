"""Digest verify's answers on a fixed set of edited certificates.

    python tests/verify_scan.py ROOT

ROOT is a checkout of the repository.  The scan imports period_index
from ROOT/src and reads ROOT/perfbench/workloads.py, and in this one
process calls construct.verify_certificate on three sets of inputs:

  single-leaf  the five certificates of ROOT/perfbench/inputs and every
               single-leaf mutant that workloads.candidates lists;
  curve-block  every edit of one leaf of a curve block (the curve of a
               prime-power certificate or of a composite's part), by
               workloads.perturb and by each of workloads.TYPE_EDITS,
               with the block's digest recomputed;
  off-gate     the certificates of the routes outside the acceptance
               gate, built here from the acceptance curves (cyclotomic
               claims (3, 1) and (3, 3) in mode A, and the direct (4, 4)
               in mode B), with their single-leaf and curve-block edits.

For each set it prints the number of inputs and one SHA-256 over the
(ok, trace) of every input in order, then the number of edits that
verify and of those that fail without naming the edited field (as
workloads.trace_names reads a trace).  Run it on a `git archive` of the
parent commit and on the change: equal digests mean that verify answers
every input of a set identically.

After each set's two lines it prints how many of the set's inputs reach
the catch-all of construct._check, the `except Exception` that turns an
error no check names into "check failed" at the certificate's root, and
then a tally of construct._lemma, the checks of the claims algebra: one
line per lemma field (indices stripped), with the number of the set's
inputs whose verify reached it and the number that failed there.  pytest
does not collect this file.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
import re
import sys
from itertools import chain
from pathlib import Path


def _workloads(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the routes outside the acceptance gate: (acceptance config, n, ell, mode)
_OFF_GATE = (("3-1", 3, 1, "A"), ("3-3", 3, 3, "A"), ("2-2", 4, 4, "B"))


def _off_gate(wl, construct) -> dict:
    """The certificates of the off-gate routes, on the acceptance curves
    at the acceptance bound."""
    certs = {}
    for name, n, ell, mode in _OFF_GATE:
        cv, basis, gens = construct.read_curve(wl.CONFIGS[name]["curve"], "curve", "curve")
        cert = construct.certify(cv, basis, gens, int(wl.BOUND), mode=mode, doubled=False,
                                 target_n=n, target_ell=ell)
        certs["%d-%d-%s" % (n, ell, mode)] = json.loads(construct.canonical_json(cert))
    return certs


def _leaf_edits(wl, certs: dict):
    """(path, certificate) for every single-leaf edit that changes its
    leaf, in the order of workloads.candidates."""
    for cert in certs.values():
        for path, old in wl.leaf_paths(cert):
            for kind in wl.EDIT_KINDS:
                if wl.edit_value(kind, old) != old:
                    yield path, wl.mutant(cert, path, kind, old)


def _curve_block_edits(wl, content_digest, certs: dict):
    """(path, certificate) for every single-leaf edit of a curve block, its
    digest recomputed."""
    for original in certs.values():
        composite = "parts" in original
        for i, part in enumerate(original["parts"] if composite else [original]):
            at = "parts[%d].inputs" % i if composite else "inputs"
            for path, old in wl.leaf_paths(part["inputs"]["curve"]):
                for kind in wl.EDIT_KINDS:
                    if wl.edit_value(kind, old) == old:
                        continue
                    cert = copy.deepcopy(original)
                    inputs = (cert["parts"][i] if composite else cert)["inputs"]
                    wl.set_path(inputs["curve"], path, wl.edit_value(kind, old))
                    inputs["digest"] = content_digest(inputs["curve"])
                    yield "%s.curve.%s" % (at, path), cert


def main(argv) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: python tests/verify_scan.py ROOT")
    root = Path(argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from period_index import construct

    if Path(construct.__file__).resolve().parents[1] != root / "src":
        raise SystemExit("imported period_index from %s, not %s/src" % (construct.__file__, root))
    wl = _workloads(root)
    # every lemma site an input reaches, and the one it fails at
    lemma, reached, failed = construct._lemma, set(), set()

    def tallied(holds, msg, field, *indexed):
        site = re.sub(r"\[\d+\]", "", field)
        reached.add(site)
        if not holds:
            failed.add(site)
        return lemma(holds, msg, field, *indexed)

    certs = {name: json.loads(wl.cert_path(name).read_text()) for name in wl.CERTS}
    off_gate = _off_gate(wl, construct)
    sets = (
        ("single-leaf", chain(((None, c) for c in certs.values()), _leaf_edits(wl, certs))),
        ("curve-block", _curve_block_edits(wl, construct.content_digest, certs)),
        ("off-gate", chain(((None, c) for c in off_gate.values()), _leaf_edits(wl, off_gate),
                           _curve_block_edits(wl, construct.content_digest, off_gate))),
    )
    # _check is wrapped as _lemma is: an input reaches the catch-all when a
    # call, its own or a composite part's, ends with a line the catch-all
    # wrote, the only ones that start with "check failed: "
    check, caught = construct._check, []

    def watched(cert, path, trace):
        mark = len(trace)
        check(cert, path, trace)
        caught.extend(msg for _, msg in trace[mark:] if msg.startswith("check failed: "))

    construct._lemma = tallied
    construct._check = watched
    for label, inputs in sets:
        h, count, verified, unnamed, uncaught = hashlib.sha256(), 0, 0, 0, 0
        tally = {}
        for path, cert in inputs:
            reached.clear()
            failed.clear()
            caught.clear()
            ok, trace = construct.verify_certificate(cert)
            uncaught += bool(caught)
            for site in reached:
                tally.setdefault(site, [0, 0])[0] += 1
            for site in failed:
                tally[site][1] += 1
            h.update(json.dumps((ok, trace)).encode() + b"\n")
            count += 1
            if path is not None and ok:
                verified += 1
            elif path is not None and not wl.trace_names("\n".join(map(": ".join, trace)), path):
                unnamed += 1
        print("%s %d %s" % (label, count, h.hexdigest()))
        print("%s edits: %d verify, %d fail without naming the field" % (label, verified, unnamed))
        print("%s catch-all: %d inputs reach it" % (label, uncaught))
        for site, (hits, fails) in sorted(tally.items()):
            print("%s lemma %s: %d reached, %d failed" % (label, site, hits, fails))


if __name__ == "__main__":
    main(sys.argv)
