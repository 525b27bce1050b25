"""Digest verify's answers on a fixed set of edited certificates.

    python tests/verify_scan.py ROOT

ROOT is a checkout of the repository.  The scan imports period_index
from ROOT/src and reads ROOT/perfbench/workloads.py, and in this one
process calls construct.verify_certificate on two sets of inputs:

  single-leaf  the five certificates of ROOT/perfbench/inputs and every
               single-leaf mutant that workloads.candidates lists;
  curve-block  every edit of one leaf of a curve block (the curve of a
               prime-power certificate or of a composite's part), by
               workloads.perturb and by each of workloads.TYPE_EDITS,
               with the block's digest recomputed.

For each set it prints the number of inputs and one SHA-256 over the
(ok, trace) of every input in order.  Run it on a `git archive` of the
parent commit and on the change: equal digests mean that verify answers
every input of both sets identically.  pytest does not collect this file.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
import sys
from itertools import chain
from pathlib import Path


def _workloads(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _curve_block_edits(wl, content_digest, certs: dict):
    """Every single-leaf edit of a curve block, its digest recomputed."""
    for name in wl.CERTS:
        composite = "parts" in certs[name]
        for i, part in enumerate(certs[name]["parts"] if composite else [certs[name]]):
            for path, old in wl.leaf_paths(part["inputs"]["curve"]):
                for kind in wl.EDIT_KINDS:
                    if wl.edit_value(kind, old) == old:
                        continue
                    cert = copy.deepcopy(certs[name])
                    inputs = (cert["parts"][i] if composite else cert)["inputs"]
                    wl.set_path(inputs["curve"], path, wl.edit_value(kind, old))
                    inputs["digest"] = content_digest(inputs["curve"])
                    yield cert


def main(argv) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: python tests/verify_scan.py ROOT")
    root = Path(argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from period_index import construct

    if Path(construct.__file__).resolve().parents[1] != root / "src":
        raise SystemExit("imported period_index from %s, not %s/src" % (construct.__file__, root))
    wl = _workloads(root)
    certs = {name: json.loads(wl.cert_path(name).read_text()) for name in wl.CERTS}
    leaves = {name: dict(wl.leaf_paths(cert)) for name, cert in certs.items()}
    mutants, _ = wl.candidates(certs)
    single = chain((certs[name] for name in wl.CERTS), (
        wl.mutant(certs[name], path, kind, leaves[name][path]) for name, path, kind in mutants
    ))
    sets = (("single-leaf", single),
            ("curve-block", _curve_block_edits(wl, construct.content_digest, certs)))
    for label, inputs in sets:
        h, count = hashlib.sha256(), 0
        for cert in inputs:
            h.update(json.dumps(construct.verify_certificate(cert)).encode() + b"\n")
            count += 1
        print("%s %d %s" % (label, count, h.hexdigest()))


if __name__ == "__main__":
    main(sys.argv)
