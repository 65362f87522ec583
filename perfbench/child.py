"""One pass of a workload in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED [--setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import e0graph`` and
building the workload's groups.  Prints one JSON object on stdout.
"""

import json
import sys
import time


def main(argv):
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    setup_only = "--setup-only" in argv

    t = time.perf_counter()
    import e0graph  # noqa: F401 - timed here, used through workloads

    import_s = time.perf_counter() - t

    from spans import Tracer, peak_rss_mb, span_cost
    import workloads

    tracer = Tracer(f"{name}-{seed}-{time.monotonic_ns()}") if trace else None
    p = workloads.Pass(tracer)
    state = workloads.setup(p, name)
    setup_s = time.monotonic() - spawned
    out = {"setup_s": setup_s, "import_s": import_s}
    if not setup_only:
        p.wall = 0.0
        counts = workloads.run(p, name, state, seed)
        out.update({
            "wall_s": p.wall,
            "peak_rss_mb": peak_rss_mb(),
            "tasks": p.tasks,
            "counts": counts,
            "versions": workloads.versions(),
        })
    if tracer is not None:
        out["spans"] = tracer.to_json()
        out["span_cost_s"] = len(tracer.spans) * span_cost()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
