"""One round of one workload in a fresh Python process.

Started by run.py; prints one JSON line with the round's set-up time, job
time, peak memory, operation counts, check results and, when traced, the
per-layer metrics. A fresh process per round gives every round the cold
program caches a command-line user gets.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file for the span dump of a traced round")
    args = p.parse_args(argv)

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed)
    t_job = time.monotonic()
    out = {"setup_s": t_job - args.spawned_at}
    if not args.setup_only:
        outputs = workload.run(inputs, tracer)
        out["wall_s"] = time.monotonic() - t_job
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found = workload.check(inputs, outputs)
        for errors in found:
            for msg in errors:
                print(f"{args.workload}: {msg}", file=sys.stderr)
        out["attempted"] = len(found)
        out["failed"] = sum(1 for errors in found if errors)
        out["digest"] = workload.digest(outputs)
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
