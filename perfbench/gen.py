"""Make the benchmark's verify inputs anew from the program itself.

    python3 perfbench/gen.py

Builds the four acceptance configurations with ``period-index construct``
and their composite with ``compose``, writes them to
``perfbench/inputs/cert-*.json``, and then judges every single-field
mutant of the five certificates (each leaf, each edit in
``workloads.EDIT_KINDS``) with ``period-index verify``.  The verdicts go
to ``perfbench/inputs/mutants.json``:

* ``rejected``: how many exit 1 with a trace naming the field.
  ``verify-tamper`` draws its seeded sample from the candidates that are
  neither faults nor accepted.
* ``faults``: every other outcome (an exception, exit 2 or 4, a trace
  that misses the field).  ``verify-tamper`` runs all of them in every
  round and counts each as failed while it still misbehaves.
* ``accepted``: the mutant verified.  Kept for the record; the benchmark
  treats a verified mutant as a wrong answer.

The full scan runs a few thousand verifications in one worker process
per core (about 9 minutes on two cores).  Keeping the certificates as files also checks, on every
benchmark run, that certificates written by this commit still verify.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def build_certificates(main) -> dict:
    gen_dir = wl.WORK / "gen"
    gen_dir.mkdir(parents=True, exist_ok=True)
    wl.INPUTS.mkdir(parents=True, exist_ok=True)
    for name, cfg in wl.CONFIGS.items():
        cfg_file = gen_dir / ("config-%s.json" % name)
        cfg_file.write_text(json.dumps(dict(cfg, seed="0")))
        t0 = time.perf_counter()
        code, out, err, exc = wl.call_cli(
            main, ["construct", "--config", str(cfg_file), "--out", str(wl.cert_path(name))]
        )
        if code != 0 or exc:
            raise SystemExit("construct %s failed: %s %s %s" % (name, code, err, exc))
        print("construct %-9s %6.2fs  %s" % (name, time.perf_counter() - t0, out.strip()))
    left, right = (str(wl.cert_path(n)) for n in wl.COMPOSE)
    code, out, err, exc = wl.call_cli(
        main,
        ["compose", left, right, "--out", str(wl.cert_path("composite")),
         "--allow-different-jacobians"],
    )
    if code != 0 or exc:
        raise SystemExit("compose failed: %s %s %s" % (code, err, exc))
    print("compose   composite         %s" % out.strip())
    certs = {}
    for name in wl.CERTS:
        code, _, err, exc = wl.call_cli(main, ["verify", str(wl.cert_path(name))])
        if code != 0 or exc:
            raise SystemExit("verify %s failed: %s %s %s" % (name, code, err, exc))
        certs[name] = json.loads(wl.cert_path(name).read_text())
    return certs


_worker = {}


def _judge(task):
    name, path, kind = task
    if not _worker:
        _worker["main"] = wl.import_program()
        _worker["certs"] = {n: json.loads(wl.cert_path(n).read_text()) for n in wl.CERTS}
        _worker["file"] = wl.WORK / "gen" / ("mutant-%d.json" % os.getpid())
    cert = _worker["certs"][name]
    old = dict(wl.leaf_paths(cert))[path]
    _worker["file"].write_text(json.dumps(wl.mutant(cert, path, kind, old)))
    code, _, err, exc = wl.call_cli(_worker["main"], ["verify", str(_worker["file"])])
    verdict = wl.judge_mutant(code, err, exc, path)
    detail = wl.fault_text(code, err, exc) if verdict == "fault" else None
    return name, path, kind, verdict, detail


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    certs = build_certificates(wl.import_program())
    tasks, skipped = wl.candidates(certs)
    print("judging %d mutants (%d edits skipped as no change)" % (len(tasks), skipped))
    t0 = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        results = pool.map(_judge, tasks, chunksize=16)
    report = {"scanned": len(results), "skipped_no_change": skipped,
              "rejected": 0, "faults": [], "accepted": []}
    for name, path, kind, verdict, detail in results:
        if verdict == "rejected":
            report["rejected"] += 1
        elif verdict == "fault":
            report["faults"].append([name, path, kind, detail])
        else:
            report["accepted"].append([name, path, kind])
    wl.mutants_path().write_text(json.dumps(report, indent=1) + "\n")
    print(
        "scanned=%d rejected=%d faults=%d accepted=%d in %.0fs -> %s"
        % (len(results), report["rejected"], len(report["faults"]),
           len(report["accepted"]), time.perf_counter() - t0, wl.mutants_path())
    )
    for entry in report["faults"] + report["accepted"]:
        print("  %s" % (entry,))
    return 0


if __name__ == "__main__":
    sys.exit(main())
