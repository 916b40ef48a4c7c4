"""Record the end-to-end timings of one lattrans checkout into a BENCH file.

    python3 bench/record.py --column change --out BENCH_<n>.json
    python3 bench/record.py --checkout ../parent --column parent --out BENCH_<n>.json

Each case is one ``lattrans`` CLI command run ``RUNS`` times, each time
in a fresh interpreter that imports ``lattrans`` from the checkout's
``src/``.  A case records the median of ``call_s`` (the command inside
the interpreter, after imports) and of ``process_s`` (the whole process,
as a shell user waits for it), and every exit code.  The column also
holds the tier-1 wall time (one run of the test suite in the checkout),
the CPU count, and the Python and numpy versions.

The recorder pins itself, and so every command it starts, to the lowest
CPU it may run on: on small virtual machines the CPUs can differ in
speed, and the scheduler's choice would otherwise set a case's time.

``--out`` keeps the other columns of an existing file, so a change and
its parent commit land side by side.  Measure the parent from a clean
copy of its commit, not from an edited tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 3

TEREPHTHALIC = ("7.730,6.443,3.749,92.75,109.15,95.95", "7.452,6.856,5.020,116.6,119.2,96.5")

#: The primitive basis of the first Terephthalic cell times I + e1 e2^T,
#: as nine reals (row-major): the same lattice in a basis whose certified
#: radius is 6/5/4 at r = 1/2/-2 instead of 3/3/2.
TEREPHTHALIC_SHEARED = ("7.73,7.062115144011454,-1.2298309492326882,0.0,6.408289851367614,"
                        "-0.30901971462014494,0.0,0.0,3.5280339641626908")

CASES = {
    **{f"verify {name}": ["verify", name]
       for name in ("bain-d1", "bain-d2", "bain-dm2", "terephthalic")},
    **{f"solve fcc bcc r={r}": ["solve", "fcc", "bcc", "--r", r] for r in ("1", "2", "-2")},
    **{f"solve terephthalic r={r}": ["solve", *TEREPHTHALIC, "--r", r] for r in ("1", "2", "-2")},
    **{f"solve terephthalic sheared r={r}": ["solve", TEREPHTHALIC_SHEARED, TEREPHTHALIC[1],
                                             "--r", r] for r in ("1", "2", "-2")},
    "region (default grid)": ["region"],
    "count-sl --k 6": ["count-sl", "--k", "6"],
}

# Runs one CLI command with its output discarded and prints the seconds
# it took after imports, its exit code and where lattrans was imported from.
_CHILD = """
import contextlib, io, json, sys, time
import lattrans
from lattrans import cli
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
seconds = time.perf_counter() - start
print(json.dumps({"call_s": seconds, "exit": code, "module": lattrans.__file__}))
"""


def _environment(checkout: Path) -> dict:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_case(checkout: Path, argv: list) -> dict:
    calls, walls, exits = [], [], []
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=checkout,
                              env=_environment(checkout), capture_output=True, text=True,
                              check=False)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["module"]).resolve().is_relative_to((checkout / "src").resolve()):
            raise RuntimeError(f"lattrans was not imported from {checkout / 'src'}")
        calls.append(result["call_s"])
        exits.append(result["exit"])
    return {"call_s": statistics.median(calls), "process_s": statistics.median(walls),
            "exit": exits, "runs": RUNS}


def run_tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=checkout, env=_environment(checkout), capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def record(checkout: Path) -> dict:
    import numpy

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                            text=True, check=False).stdout.strip()
    column = {
        "commit": commit or None,
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cases": {},
    }
    for name, argv in CASES.items():
        column["cases"][name] = run_case(checkout, argv)
        print(f"{name}: {column['cases'][name]['call_s']:.3f} s", file=sys.stderr)
    column["tier1"] = run_tier1(checkout)
    print(f"tier-1: {column['tier1']['wall_s']:.1f} s", file=sys.stderr)
    return column


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="root of the lattrans checkout to measure (default: this one)")
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to update")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "lattrans").is_dir():
        parser.error(f"{checkout} holds no src/lattrans")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"columns": {}}
    doc["columns"][args.column] = record(checkout)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
