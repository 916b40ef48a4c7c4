"""Record the end-to-end timings of lattrans checkouts side by side into a BENCH file.

    python3 bench/record.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_<n>.json

Each ``--checkout NAME=PATH`` becomes one column; at least two are
required, so every BENCH file compares its columns within one run.  Each
case is one ``lattrans`` CLI command, run once per column and round in
a fresh interpreter that imports ``lattrans`` from the checkout's
``src/``.  Each of the ``ROUNDS`` rounds runs every case in turn, so a
slow spell of the machine lands on all cases alike rather than on one.
The columns alternate within each case, and the order reverses on every
other round (AB BA AB ...), so neither a slow spell nor the position in
a round favours one column.  The
interpreter runs the command ``CALLS`` times.  A case records, per
column, the median and the quartiles of ``call_s`` (the first call,
after imports, as a shell user meets it: mostly first-call set-up), of
``warm_s`` (the median of the later calls in the same process, which
shows the work of the command itself and is steadier than any one call)
and of ``process_s`` (the whole process, all calls), and every exit
code.  Each
column also holds the tier-1 wall time (one run of the test suite in the
checkout), the CPU count, and the Python and numpy versions.

The recorder pins itself, and so every command it starts, to the lowest
CPU it may run on: on small virtual machines the CPUs can differ in
speed, and the scheduler's choice would otherwise set a case's time.

``--out`` is overwritten with this run's columns.  Measure a parent
commit from a clean copy of it, not from an edited tree.
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

ROUNDS = 5

#: Calls of the command per process: the first, then the warm ones.
CALLS = 5

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

# Runs one CLI command argv[1] times with its output discarded and prints
# the seconds the first call took after imports, the median of the later
# calls, the exit code (the same for every call) and where lattrans was
# imported from.
_CHILD = """
import contextlib, io, json, statistics, sys, time
import lattrans
from lattrans import cli
seconds, codes = [], []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(sys.argv[2:]))
    seconds.append(time.perf_counter() - start)
assert len(set(codes)) == 1, codes
print(json.dumps({"call_s": seconds[0], "warm_s": statistics.median(seconds[1:]),
                  "exit": codes[0], "module": lattrans.__file__}))
"""


def _environment(checkout: Path) -> dict:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_once(checkout: Path, argv: list) -> tuple:
    """(call_s, warm_s, process_s, exit code) of one fresh-process run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(CALLS), *argv], cwd=checkout,
                          env=_environment(checkout), capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} failed in {checkout}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to((checkout / "src").resolve()):
        raise RuntimeError(f"lattrans was not imported from {checkout / 'src'}")
    return result["call_s"], result["warm_s"], wall, result["exit"]


def summarise(runs: list) -> dict:
    """Median and quartiles of ``call_s``, ``warm_s`` and ``process_s``
    over ``runs``."""
    out = {"exit": [run[-1] for run in runs], "runs": len(runs)}
    for i, key in enumerate(("call_s", "warm_s", "process_s")):
        q1, median, q3 = statistics.quantiles([run[i] for run in runs], n=4, method="inclusive")
        out[key], out[f"{key}_quartiles"] = median, [q1, q3]
    return out


def run_tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=checkout, env=_environment(checkout), capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def record(checkouts: dict) -> dict:
    """One column per checkout; every round runs each case, its columns
    alternately."""
    import numpy

    columns = {}
    for name, checkout in checkouts.items():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                                text=True, check=False).stdout.strip()
        columns[name] = {
            "commit": commit or None,
            "cpu_count": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cases": {},
        }
    order = list(checkouts.items())
    runs = {case: {name: [] for name in checkouts} for case in CASES}
    for i in range(ROUNDS):
        for case, argv in CASES.items():
            for name, checkout in order if i % 2 == 0 else order[::-1]:
                runs[case][name].append(run_once(checkout, argv))
        print(f"round {i + 1}/{ROUNDS} done", file=sys.stderr)
    for case in CASES:
        for name in checkouts:
            columns[name]["cases"][case] = summarise(runs[case][name])
        print(case + ": " + ", ".join(f"{name} {columns[name]['cases'][case]['call_s']:.4f} s "
                                      f"(warm {columns[name]['cases'][case]['warm_s']:.4f} s)"
                                      for name in checkouts), file=sys.stderr)
    for name, checkout in checkouts.items():
        columns[name]["tier1"] = run_tier1(checkout)
        print(f"tier-1 {name}: {columns[name]['tier1']['wall_s']:.1f} s", file=sys.stderr)
    return columns


def _column(text: str) -> tuple:
    name, sep, path = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=_column, action="append", metavar="NAME=PATH",
                        required=True,
                        help="a column and the root of the lattrans checkout it measures "
                             "(give at least two)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    checkouts = dict(args.checkout)
    if len(checkouts) < 2:
        parser.error("give at least two --checkout columns with distinct names")
    for path in checkouts.values():
        if not (path / "src" / "lattrans").is_dir():
            parser.error(f"{path} holds no src/lattrans")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    doc = {"columns": record(checkouts)}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
