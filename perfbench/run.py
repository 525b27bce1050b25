"""The period-index benchmark: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one in-process call of ``period_index.cli.main`` on
files the benchmark generated from ``--seed``; its output is checked by
``checks.py`` and by the CLI's own verdict.  The run repeats whole rounds
of the same operations until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs rounds
untraced, then as many traced (``tracing.py``), and prints the per-layer
metrics of one round plus the tracing overhead.  The last line of standard
output is the JSON result; the same numbers, with every span and the
per-operation times, are written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 11
# Seeded rejected-class mutants per certificate and round.  How long a
# mutant takes to reject depends mostly on the certificate and on the
# section its field sits in, so the sample takes the same number from each
# certificate, evenly spaced through its fields (see _spread_sample): the
# mix of cheap and costly verifications, and so the median, is then nearly
# the same for every seed.
TAMPER_PER_CERT = 16
P90_MIN_OPS = 100

WORKLOADS = {
    "construct-direct": "construct of the cubic (3,1), (3,3) and quadratic (2,1) configs",
    "construct-doubled": "construct of the doubled (2,2) config at level 4",
    "verify-accept": "verify of the five acceptance certificates",
    "verify-tamper": "verify of single-field mutants of the five certificates",
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric name -> (tracer accessor, span key or layer)
PER_LAYER = [
    ("cyclo.CycloElem.mul.calls", "calls", "cyclo.CycloElem.mul"),
    ("cyclo.CycloElem.invert.calls", "calls", "cyclo.CycloElem.invert"),
    ("cyclo.CycloElem.invert.s", "s", "cyclo.CycloElem.invert"),
    ("cyclo.solve_norm_equation.calls", "calls", "cyclo.solve_norm_equation"),
    ("cyclo.solve_norm_equation.s", "s", "cyclo.solve_norm_equation"),
    ("cyclo.self_s", "self", "cyclo"),
    ("localfield.tame_invariant.calls", "calls", "localfield.tame_invariant"),
    ("localfield.tame_invariant.s", "s", "localfield.tame_invariant"),
    ("localfield.valuation.calls", "calls", "localfield.valuation"),
    ("localfield.valuation.s", "s", "localfield.valuation"),
    ("localfield.self_s", "self", "localfield"),
    ("ecq.CurveFp.add.calls", "calls", "ecq.CurveFp.add"),
    ("ecq.CurveL.add.calls", "calls", "ecq.CurveL.add"),
    ("ecq.enumerate_points.calls", "calls", "ecq.enumerate_points"),
    ("ecq.enumerate_points.s", "s", "ecq.enumerate_points"),
    ("ecq.group_structure.calls", "calls", "ecq.group_structure"),
    ("ecq.group_structure.s", "s", "ecq.group_structure"),
    ("ecq.divisibility_witness.s", "s", "ecq.divisibility_witness"),
    ("ecq.weil_pairing.calls", "calls", "ecq.weil_pairing"),
    ("ecq.weil_pairing.s", "s", "ecq.weil_pairing"),
    ("ecq.torsion_pool.s", "s", "ecq.torsion_pool"),
    ("ecq.self_s", "self", "ecq"),
    ("kummer.make_basis.calls", "calls", "kummer.make_basis"),
    ("kummer.make_basis.s", "s", "kummer.make_basis"),
    ("kummer.galois_representation.s", "s", "kummer.galois_representation"),
    ("kummer.twisted_norm.s", "s", "kummer.twisted_norm"),
    ("kummer.self_s", "self", "kummer"),
    ("sieve.find_v.s", "s", "sieve.find_v"),
    ("sieve.find_vprime.s", "s", "sieve.find_vprime"),
    ("sieve.attach_generator.calls", "calls", "sieve.attach_generator"),
    ("sieve.attach_generator.s", "s", "sieve.attach_generator"),
    ("sieve.divisibility_data.calls", "calls", "sieve.divisibility_data"),
    ("sieve.divisibility_data.s", "s", "sieve.divisibility_data"),
    ("sieve.v_hit_ratio", "ratio", ("sieve.find_v", "sieve.divisibility_data")),
    ("sieve.self_s", "self", "sieve"),
    ("construct.certify.s", "s", "construct.certify"),
    ("construct.verify_certificate.calls", "calls", "construct.verify_certificate"),
    ("construct.verify_certificate.s", "s", "construct.verify_certificate"),
    ("construct.canonical_json.s", "s", "construct.canonical_json"),
    ("construct.self_s", "self", "construct"),
    ("cli.RunConfig.s", "s", "cli.RunConfig"),
    ("cli.self_s", "self", "cli"),
]


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


# ------------------------------------------------------------------ workloads


class Op:
    """One CLI call on one input file and the check of its output: ``judge``
    returns 'ok', 'failed' (a known-fault mutant still misbehaves) or
    'wrong: <why>' (any other bad answer, crash or exit code)."""

    def __init__(self, label: str, argv: list, reads, judge):
        self.label, self.argv, self.reads, self.judge = label, argv, reads, judge


def _construct_round(names, rng, work) -> tuple:
    order = list(names)
    rng.shuffle(order)
    ops = []
    for name in order:
        cfg = work / ("config-%s.json" % name)
        cfg.write_text(wl.config_text(name, rng))
        out = work / ("cert-%s.json" % name)
        first = {}

        def judge(code, stdout, err, exc, out=out, first=first):
            if exc is not None or code != 0:
                return "wrong: construct gave %s" % wl.fault_text(code, err, exc)
            data = out.read_bytes()
            if not first:
                first["bytes"] = data
                bad = checks.check_certificate(json.loads(data))
                return "wrong: %s" % "; ".join(bad) if bad else "ok"
            return "ok" if data == first["bytes"] else "wrong: rebuild is not byte-identical"

        argv = ["construct", "--config", str(cfg), "--out", str(out)]
        ops.append(Op("construct " + name, argv, cfg, judge))
    return ops, []


def _load_certs() -> dict:
    return {name: json.loads(wl.cert_path(name).read_text()) for name in wl.CERTS}


def _input_problems(certs: dict) -> list:
    return ["%s: %s" % (name, msg) for name, c in certs.items() for msg in checks.check_certificate(c)]


def _verify_accept_round(rng, work) -> tuple:
    certs = _load_certs()
    order = list(wl.CERTS)
    rng.shuffle(order)

    def judge(code, stdout, err, exc):
        if exc is None and code == 0 and "certificate ok" in stdout:
            return "ok"
        return "wrong: a valid certificate gave %s" % wl.fault_text(code, err, exc)

    ops = [Op("verify " + name, ["verify", str(wl.cert_path(name))], wl.cert_path(name), judge)
           for name in order]
    return ops, _input_problems(certs)


def _spread_sample(pool: list, k: int, rng) -> list:
    """k items of pool at a seeded offset and an even stride."""
    stride = len(pool) / k
    offset = rng.random() * stride
    return [pool[int(offset + i * stride)] for i in range(k)]


def _verify_tamper_round(rng, work) -> tuple:
    certs = _load_certs()
    scan = json.loads(wl.mutants_path().read_text())
    chosen = [tuple(e[:3]) for e in scan["faults"]]
    faults = set(chosen)
    known = faults | {tuple(e) for e in scan["accepted"]}
    pool = [c for c in wl.candidates(certs)[0] if c not in known]
    for name in wl.CERTS:
        chosen += _spread_sample([c for c in pool if c[0] == name], TAMPER_PER_CERT, rng)
    rng.shuffle(chosen)
    leaves = {name: dict(wl.leaf_paths(c)) for name, c in certs.items()}
    ops = []
    for i, (name, path, kind) in enumerate(chosen):
        f = work / ("mutant-%03d.json" % i)
        f.write_text(json.dumps(wl.mutant(certs[name], path, kind, leaves[name][path])))

        def judge(code, stdout, err, exc, path=path, known_fault=(name, path, kind) in faults):
            verdict = wl.judge_mutant(code, err, exc, path)
            if verdict == "rejected":
                return "ok"
            if verdict == "accepted":
                return "wrong: mutant at %s verified" % path
            if known_fault:
                return "failed"
            return "wrong: mutant at %s gave %s" % (path, wl.fault_text(code, err, exc))

        ops.append(Op("tamper %s %s %s" % (name, path, kind), ["verify", str(f)], f, judge))
    return ops, _input_problems(certs)


LOADERS = {
    "construct-direct": lambda rng, work: _construct_round(wl.DIRECT, rng, work),
    "construct-doubled": lambda rng, work: _construct_round(wl.DOUBLED, rng, work),
    "verify-accept": _verify_accept_round,
    "verify-tamper": _verify_tamper_round,
}


# ------------------------------------------------------------------ running


def _spawn(code: str, files: list) -> float:
    """Wall seconds of a fresh interpreter running code with files as argv."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code] + files, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("perfbench: set-up process failed:\n%s" % proc.stderr)
    return wall


def setup(workload: str, seed: int, work, meter):
    """Write the inputs, import the program, then SETUP_REPEATS times time
    a fresh interpreter that imports ``period_index.cli`` and reads the
    inputs, less a fresh interpreter that does neither.  Every module the
    program pulls in, its own or the standard library's, is loaded anew in
    each repeat, as a ``period-index`` user pays it on every call.  The
    times are scaled by the median probe of the set-up phase (a probe
    before each interpreter; single probes next to process starts vary
    too much to scale one start by).  Returns (cli module, ops, input
    problems, scaled set-up seconds of each repeat)."""
    work.mkdir(parents=True)
    ops, problems = LOADERS[workload](random.Random(seed), work)
    wl.import_program()
    files = sorted({str(op.reads) for op in ops})
    bare = "import sys; sys.path.insert(0, %r)" % str(wl.SRC)
    full = bare + "\nimport period_index.cli\nfor f in sys.argv[1:]:\n    open(f, 'rb').read()"
    first_probe = len(meter.samples)
    raw = []
    for _ in range(SETUP_REPEATS):
        meter.probe()
        base = _spawn(bare, files)
        meter.probe()
        raw.append(_spawn(full, files) - base)
    probe = statistics.median(dt for _, dt in meter.samples[first_probe:])
    times = [t * REFERENCE_PROBE_S / probe for t in raw]
    return sys.modules["period_index.cli"], ops, problems, times


def _program_caches():
    """The program's lru caches: a CLI user fills them anew on every call."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("period_index."):
            out += [obj for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
    return out


class Tally:
    """Verdicts and times of every operation run."""

    def __init__(self, cli, ops, meter):
        self.cli, self.ops, self.meter = cli, ops, meter
        self.caches = _program_caches()
        self.wall, self.scaled, self.attempted, self.failed, self.wrong = [], [], 0, 0, []

    def run_round(self):
        for op in self.ops:
            # a CLI user starts each call with empty caches and no garbage
            for cache in self.caches:
                cache.cache_clear()
            gc.collect()
            # cli.main is looked up per call: the tracer may have rebound it
            res, wall, scaled = self.meter.timed(wl.call_cli, self.cli.main, op.argv)
            self.wall.append(wall)
            self.scaled.append(scaled)
            self.attempted += 1
            verdict = op.judge(*res)
            if verdict == "failed":
                self.failed += 1
            elif verdict != "ok":
                self.wrong.append("%s: %s" % (op.label, verdict))

    def run_for(self, seconds: float) -> int:
        """Whole rounds until seconds of wall time have passed."""
        t0 = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() - t0 < seconds:
            self.run_round()
            rounds += 1
        return rounds


def measure(tally: Tally, seconds: float):
    with tally.meter:
        rounds = tally.run_for(seconds)
    ms = [t * 1000 for t in tally.scaled]
    # op_p50_ms is the median over the round's operations of each one's
    # median over the rounds.  The plain median of all times sits at the
    # lower quartile of the costly builds on construct-direct (a third of
    # its builds take 11 ms, the rest 290 ms) and spread 0.055 between
    # runs; this one spread 0.011 on the same runs.
    per_op = [statistics.median(ms[i::len(tally.ops)]) for i in range(len(tally.ops))]
    metrics = {
        "ops_per_s": tally.attempted / sum(tally.scaled),
        "op_p50_ms": statistics.median(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"rounds": rounds, "wall_s": sum(tally.wall), "wall_op_p50_ms": 1000 * statistics.median(tally.wall),
             "op_p50_ms_by_op": {op.label: t for op, t in zip(tally.ops, per_op)}}
    if tally.attempted >= P90_MIN_OPS:
        extra["op_p90_ms"] = statistics.quantiles(ms, n=10)[8]
    return metrics, extra


def traced(tally: Tally, seconds: float):
    """Untraced rounds for half the run, then as many traced rounds.  Probes
    run only between operations here, so none lands inside a span."""
    rounds = tally.run_for(seconds / 2)
    plain = sum(tally.scaled)
    first_probe = len(tally.meter.samples)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(rounds):
            tally.run_round()
    finally:
        tracer.uninstall()
    overhead = sum(tally.scaled) - 2 * plain
    factor = tally.meter.factor(first_probe)  # scales span seconds like op times
    metrics = {}
    for name, how, key in PER_LAYER:
        if how == "calls":
            total = tracer.calls(key)
            value = total // rounds if total % rounds == 0 else total / rounds
        elif how == "s":
            value = tracer.seconds(key) * factor / rounds
        elif how == "self":
            value = tracer.self_seconds(key) * factor / rounds
        else:
            hits, base = tracer.returned(key[0]), tracer.calls(key[1])
            value = hits / base if base else 0.0
        metrics[name] = value
    metrics["trace_overhead_s"] = overhead / rounds
    extra = {"rounds": rounds, "untraced_round_s": plain / rounds, "span_scale": factor,
             "sieve.v_hit_ratio.base": tracer.calls("sieve.divisibility_data") // rounds,
             "spans": tracer.table()}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="period-index benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = wl.WORK / ("run-%s-%d" % (args.workload, os.getpid()))
    meter = SpeedMeter()
    try:
        cli, ops, problems, setup_times = setup(args.workload, args.seed, work, meter)
        tally = Tally(cli, ops, meter)
        gc.collect()
        if args.trace:
            metrics, extra = traced(tally, args.seconds)
        else:
            metrics, extra = measure(tally, args.seconds)
            metrics = dict(setup_s=statistics.median(setup_times), **metrics)
            extra["setup_repeats_s"] = setup_times
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = END_TO_END if not args.trace else dict(
        {name: _unit(name) for name, _, _ in PER_LAYER}, trace_overhead_s="s")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    wrong = problems + tally.wrong
    result = {"correct": not wrong, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print("workload %s seed %d: %s" % (args.workload, args.seed, WORKLOADS[args.workload]))
    print("%d operations in %d rounds, %d failed" % (tally.attempted, extra["rounds"], tally.failed))
    for msg in wrong[:20]:
        print("WRONG %s" % msg)
    for name, m in metrics.items():
        fmt = "%14d" if isinstance(m["value"], int) else "%14.6g"
        print(("  %-38s " + fmt + " %s") % (name, m["value"], m["unit"]))
    if "op_p90_ms" in extra:
        print("  %-38s %14.6g ms (not gated)" % ("op_p90_ms", extra["op_p90_ms"]))
    out_dir = wl.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    detail = dict(extra, probe_reference_s=REFERENCE_PROBE_S,
                  probe_median_s=statistics.median(dt for _, dt in meter.samples))
    out_file.write_text(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                        seconds=args.seconds, trace=args.trace,
                                        python=sys.version.split()[0], detail=detail),
                                   indent=1) + "\n")
    print("results written to %s" % out_file.relative_to(wl.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
