"""fedagg benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each round of the workload runs in
a fresh Python process (perfbench/job.py) that imports the package from
``src/``; rounds repeat until ``--seconds`` have passed, and a few set-up-only
processes are timed first. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. See perfbench/README.md for what each metric means.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5  # set-up-only processes per run, besides one per round
RUN_LIMIT_S = 170.0  # a run gives up rather than overrun this
MAX_BLAS_THREADS = 2

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
WORKLOADS = ("sweep", "fl_train", "optimize")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args, deadline: float, extra=()) -> dict:
    """Run one job process and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a round could start")
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "job.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--spawned-at", repr(spawned_at), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a round overran the run's time limit") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"job process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def measure(args) -> dict:
    if not (ROOT / "src" / "fedagg" / "__init__.py").is_file():
        raise BenchError(f"no fedagg sources under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probes = [spawn(args, deadline, ["--setup-only"]) for _ in range(SETUP_PROBES)]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = []
    t0 = time.monotonic()
    while True:
        extra = []
        if args.trace and not rounds:
            extra = ["--spans", str(OUT_DIR / f"{stem}.spans.jsonl")]
        rounds.append(spawn(args, deadline, extra))
        if time.monotonic() - t0 >= args.seconds:
            break
    # Fresh processes with one seed must give the same outputs and, when
    # traced, the same work counts.
    digests = {r["digest"] for r in rounds}
    correct = len(digests) == 1
    if args.trace:
        counts = {
            json.dumps({n: r["layers"][n] for n, unit in LAYER_METRICS if unit == "count"})
            for r in rounds
        }
        correct &= len(counts) == 1
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in LAYER_METRICS
        }
    else:
        values = {
            "wall_s": median(rounds, "wall_s"),
            "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
            "peak_rss_mib": median(rounds, "peak_rss_mib"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "probes": probes, "rounds": rounds, "result": result},
                  fh, indent=1)
    print(
        f"# {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
        f"job wall_s median {median(rounds, 'wall_s'):.4f}, "
        f"{time.monotonic() - start:.1f} s in all"
    )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
