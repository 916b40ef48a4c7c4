"""Benchmark of lattrans: end-to-end solve metrics and a traced per-module run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certified --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --self-test

With ``--trace 0`` the run measures the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it runs the same cycles untraced,
traced and untraced again, and reports the per-layer metrics and the
tracing overhead.  Every answer is checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, tail percentiles, failure messages).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 18.0
SETUP_REPEATS = 3

#: What a fresh interpreter does before its first answer: import lattrans
#: and run one unhinted solve, which fills the SL^3 cache.
SETUP_CODE = ("import lattrans as lt; "
              "lt.solve(lt.fcc_basis(), lt.bcc_basis(), lt.StrainMetric(1.0))")


@dataclass
class Done:
    kind: str
    latency: float
    cpu: float
    answered: bool
    problems: list
    work: tuple = (0, 0)

    @property
    def ok(self) -> bool:
        return self.answered and not self.problems


def run_op(op, recorder=None) -> Done:
    """Time one op, then check its answer with the recorder paused.

    The answer is dropped after the check, so memory does not grow with
    the number of ops.
    """
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        answer = op.call()
    except Exception as exc:  # a failed op is counted, the loop goes on
        answer, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    cpu = time.process_time() - c0
    with recorder.pause() if recorder else contextlib.nullcontext():
        if error is not None:
            problems = [error]
        else:
            try:
                problems = list(op.check(answer))
            except Exception as exc:  # an answer the check cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
    if error is not None:
        return Done(op.kind, latency, cpu, False, problems)
    return Done(op.kind, latency, cpu, True, problems, op.work(answer) if op.work else (0, 0))


def run_cycles(cycles, budget: float, recorder=None):
    """Run whole cycles until the timed ops add up to ``budget`` seconds.

    Returns the finished ops and the cycles they came from.
    """
    done, used, measured = [], [], 0.0
    for cycle in cycles:
        used.append(cycle)
        for op in cycle:
            if recorder:
                recorder.start_op(len(done))
            done.append(run_op(op, recorder))
            measured += done[-1].latency
        if measured >= budget:
            break
    return done, used


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter's import and first solve."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(latencies_or_inf: list, q: float):
    """Nearest-rank percentile, or None with fewer than 10 samples beyond it."""
    n = len(latencies_or_inf)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(latencies_or_inf)[rank - 1]


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def end_to_end(done: list, setup_s: float, peak_rss_mb: float) -> tuple:
    """(metrics, details) of an untraced run."""
    ok = [d for d in done if d.ok]
    measured = sum(d.latency for d in done)
    if not ok:
        raise SystemExit("no op returned a correct answer; nothing to report")
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(d.latency for d in ok),
        "ops_per_s": len(ok) / measured,
        "ok_share": len(ok) / len(done),
        "peak_rss_mb": peak_rss_mb,
    }
    ranked = [d.latency if d.ok else math.inf for d in done]
    details = {
        "ops": len(done),
        "measured_s": measured,
        "failed_share": 1.0 - len(ok) / len(done),
        # Failed or incorrect ops rank slower than every success.
        "op_p50_s_all": percentile(ranked, 0.50),
        "op_p90_s": percentile(ranked, 0.90),
        "op_p99_s": percentile(ranked, 0.99),
        "median_s_by_kind": {
            kind: statistics.median(d.latency for d in done if d.kind == kind)
            for kind in sorted({d.kind for d in done})
        },
    }
    cells = matrices = 0
    region_s = count_s = 0.0
    for d in ok:
        c, m = d.work
        cells, matrices = cells + c, matrices + m
        region_s += d.latency if c else 0.0
        count_s += d.latency if m else 0.0
    if cells:
        details["region_cells_per_s"] = cells / region_s
    if matrices:
        details["slk_matrices_per_s"] = matrices / count_s
    return metrics, details


def per_layer(rec, untraced: list, traced: list) -> dict:
    """Per-layer metrics of the traced phase, normalised per op.

    ``untraced`` holds two untraced passes over the traced cycles, one
    before and one after the traced pass, so that warming and drift
    cancel out of the overhead.
    """
    import tracing

    summary = rec.summary()
    n_ops = len(traced)
    out = {}
    for modname, attr, _ in tracing.TRACED:
        name = f"{modname}.{attr}"
        entry = summary.get(name, {})
        for key in ("calls", "busy_s", "self_s"):
            out[f"{name}.{key}"] = entry.get(key, 0.0) / n_ops

    def total(name, key):
        return summary.get(name, {}).get(key, 0.0)

    solves = total("optimizer.solve", "returned")
    out["optimizer.candidates"] = total("optimizer.solve", "candidates") / max(solves, 1)
    out["optimizer.k_used"] = total("optimizer.solve", "k_used") / max(solves, 1)
    out["optimizer.minimizers"] = total("optimizer.solve", "minimizers") / max(solves, 1)
    out["optimizer.group_classes.items"] = total("optimizer.group_classes", "rows") / n_ops
    rows = total("metrics.distance_to_identity_many", "rows")
    busy = total("metrics.distance_to_identity_many", "busy_s")
    out["metrics.distance_to_identity_many.rows"] = rows / n_ops
    out["metrics.distance_to_identity_many.rows_per_s"] = rows / busy if busy else 0.0
    out["optimizer.useful_ratio"] = (
        total("metrics.distance_to_identity_many", "useful") / rows if rows else 0.0)
    out["unimodular.integer_inverse_batch.rows"] = (
        total("unimodular.integer_inverse_batch", "rows") / n_ops)
    count = total("unimodular.count_slk", "count")
    examined = total("unimodular.count_slk", "examined")
    busy = total("unimodular.count_slk", "busy_s")
    out["unimodular.count_slk.count"] = count / n_ops
    out["unimodular.count_slk.examined"] = examined / n_ops
    out["unimodular.count_slk.count_per_examined"] = count / examined if examined else 0.0
    out["unimodular.count_slk.matrices_per_s"] = count / busy if busy else 0.0
    cells = total("applications.bct_region_scan", "cells")
    busy = total("applications.bct_region_scan", "busy_s")
    out["applications.bct_region_scan.cells"] = cells / n_ops
    out["applications.bct_region_scan.cells_per_s"] = cells / busy if busy else 0.0
    for code in range(5):
        out[f"cli.exit_code.{code}"] = total("cli.main", f"exit_code.{code}") / n_ops
    before, after = rec.cache_before, rec.cache_after
    out["unimodular.materialize_slk.cache_hits"] = (
        (after.hits - before.hits) / n_ops if before and after else 0.0)
    out["unimodular.materialize_slk.cache_misses"] = (
        (after.misses - before.misses) / n_ops if before and after else 0.0)
    wall = sum(d.latency for d in untraced) / 2.0
    out["process.cpu_per_wall"] = sum(d.cpu for d in untraced) / 2.0 / wall
    out["trace.spans"] = len(rec.spans) / n_ops
    out["trace.overhead_s"] = sum(d.latency for d in traced) - wall
    out["trace.overhead_share"] = out["trace.overhead_s"] / wall
    return out


def execute(args, spec: dict, setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Run one workload; returns (result, detail) for printing."""
    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if workload.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = np.random.default_rng(args.seed)
    cycles = (workload.cycle(rng, i) for i in itertools.count())
    workload.warm()

    if not args.trace:
        setup_s = measure_setup(setup_repeats)
        done, _ = run_cycles(cycles, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, detail = end_to_end(done, setup_s, peak_rss_mb)
        wanted = spec["end_to_end"]
    else:
        done, used = run_cycles(cycles, args.seconds / 3.0)
        rec = tracing.Recorder()
        rec.install()
        try:
            traced, _ = run_cycles(iter(used), math.inf, rec)
        finally:
            rec.uninstall()
        done += run_cycles(iter(used), math.inf)[0]
        values = per_layer(rec, done, traced)
        done += traced
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{args.workload}.jsonl")
        detail = {"ops": len(done), "spans_file": str((OUT / f"spans-{args.workload}.jsonl")
                                                       .relative_to(ROOT))}
        wanted = spec["per_layer"]

    failed = sum(not d.ok for d in done)
    detail["environment"] = environment(args)
    detail["problems"] = [f"{d.kind}: {p}" for d in done for p in d.problems][:10]
    result = {
        "correct": all(d.ok for d in done if d.answered),
        "attempted": len(done),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    return result, detail


def emit(result: dict, detail: dict) -> str:
    lines = [f"{name} = {m['value']!r} {m['unit']}" for name, m in result["metrics"].items()]
    lines.append("detail " + json.dumps(detail, default=str))
    lines.append(json.dumps(result))
    return "\n".join(lines) + "\n"


def self_test(spec: dict) -> int:
    """Check the harness: every metric printed with its unit, and a
    corrupted answer of each kind counted as failed."""
    import numpy as np

    import lattrans as lt
    import workloads

    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=DEFAULT_SEED, seconds=0.0, trace=trace)
            result, detail = execute(args, spec, setup_repeats=1)
            text = emit(result, detail)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                line = next((ln for ln in text.splitlines() if ln.startswith(m["name"] + " = ")), "")
                assert line.endswith(" " + m["unit"]), f"{name}: {m['name']} not printed with its unit"
            assert json.loads(text.splitlines()[-1]) == result
            assert result["correct"], f"{name} trace={trace}: {detail['problems']}"
            print(f"self-test {name} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(wanted)} metrics")

    fcc, bcc = lt.fcc_basis(), lt.bcc_basis()
    report = lt.solve(fcc, bcc, lt.StrainMetric(1.0), hint_mus=[lt.BAIN_MU0])
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        lt.cli.main(["solve", "fcc", "bcc", "--format", "structured"])
    doc = json.loads(text.getvalue())
    doc["m_min"] += 1e-6
    stats = lt.count_slk(3)
    eye = np.eye(3, dtype=np.int64)
    corrupted = [
        ("m_min", replace(report, m_min=report.m_min + 1e-6),
         lambda rep: workloads.check_report(fcc, bcc, 1.0, rep)),
        ("minimizer", replace(report, minimizers=report.minimizers[1:]),
         lambda rep: workloads.check_report(fcc, bcc, 1.0, rep) + workloads.check_bain(rep, 1.0, 1.0)),
        ("cli m_min", json.dumps(doc),
         lambda t: workloads.check_rebased(t, fcc, bcc, 1.0, eye, eye, report)),
        ("count", replace(stats, count=stats.count - 1), lambda s: workloads.check_count(s, 3)),
    ]
    for label, answer, check in corrupted:
        done = run_op(workloads.Op(label, lambda a=answer: a, check))
        assert not done.ok, f"corrupted {label} passed the checks"
        print(f"self-test corrupted {label}: counted as failed ({done.problems[0]})")
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lattrans" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no lattrans source tree under {ROOT}; run from a checkout\n")
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    result, detail = execute(args, spec)
    sys.stdout.write(emit(result, detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
