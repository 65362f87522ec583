"""Benchmark of e0graph: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {e7,dense,balls,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Every pass of the workload's task list runs in a fresh child
process on one thread (``perfbench/child.py``), and passes repeat until the
next one would end after ``--seconds``; at least one always runs.  Each
result is checked against the paper's invariants and the seed commit's
outputs (``perfbench/workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds of
one pass's task list after set-up), ``setup_s`` (median seconds from child
start until ``import e0graph`` returns and the groups are built, over at
least ``SETUP_SAMPLES`` children) and ``peak_rss_mb`` (median ``ru_maxrss``
of the pass children).  ``--trace 1`` alternates untraced and traced passes
and reports per-layer self times from the traced ones, the exact counts, and
the tracing overhead, both as traced minus untraced ``wall_s`` and as the
spans' own cost timed on empty spans; it writes every span to
``.bench_out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the workloads one after another and prints each
one's lines and JSON object in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from spans import quartiles, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # a run has to end within 180 s
WORKLOADS = ("e7", "dense", "balls")

# spans whose self times are reported as per-layer metrics "<span>_s"
LAYER_SPANS = (
    "coxeter.group",
    "graph.vertices",
    "graph.build",
    "graph.valency",
    "graph.diameter",
    "graph.pendant",
    "graph.export_json",
    "graph.export_dot",
    "graph.distance",
    "infinite.group",
    "infinite.ball",
    "infinite.evidence",
    "infinite.product",
)


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, trace, deadline, setup_only=False):
    """Run one child to completion and return its JSON record."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if trace else "0", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} pass did not finish before the run limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def git_sha():
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def mem_total_mb():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20


def measure(workload, seed, seconds, trace):
    """Passes until the next would overrun ``seconds``; set-up samples on top."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn(workload, seed, False, deadline, setup_only=True)  # warm files and bytecode
    untraced, traced = [], []
    t0 = time.monotonic()
    while True:
        untraced.append(spawn(workload, seed, False, deadline))
        if trace:
            traced.append(spawn(workload, seed, True, deadline))
        elapsed = time.monotonic() - t0
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break
    setups = [r["setup_s"] for r in untraced]
    imports = [r["import_s"] for r in untraced]
    while len(setups) < SETUP_SAMPLES:
        r = spawn(workload, seed, False, deadline, setup_only=True)
        setups.append(r["setup_s"])
        imports.append(r["import_s"])
    return untraced, traced, setups, imports


def median(values):
    return quartiles(values)[1]


def describe(name, values, unit):
    q1, med, q3 = quartiles(values)
    return f"{name:<26} {med:12.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def layer_metrics(untraced, traced, imports):
    """Per-layer self times, peak RSS after the vertex set, counts, overhead."""
    per_pass = [self_times(r["spans"]) for r in traced]
    metrics = {"setup.import_s": (median(imports), "s")}
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = (median([t.get(name, 0.0) for t in per_pass]), "s")
    rss = [max((s["rss_mb"] for s in r["spans"] if s["name"] == "graph.vertices"), default=0.0)
           for r in traced]
    metrics["graph.vertices_rss_mb"] = (median(rss), "MB")
    for name in traced[0]["counts"]:
        unit = "ratio" if name.endswith("yield") else "B" if name.endswith("bytes") else "count"
        metrics[name] = (traced[0]["counts"][name], unit)
    traced_wall = median([r["wall_s"] for r in traced])
    plain_wall = median([r["wall_s"] for r in untraced])
    layers = [sum(t.get(n, 0.0) for n in LAYER_SPANS if not n.endswith(".group")) for t in per_pass]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.span_cost_s"] = (median([r["span_cost_s"] for r in traced]), "s")
    metrics["trace.unattributed_s"] = (traced_wall - median(layers), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report(workload, args.seed, args.seconds, args.trace)
    return 0


def report(workload, seed, seconds, trace):
    """Measure one workload and print its lines, the result JSON last."""
    untraced, traced, setups, imports = measure(workload, seed, seconds, bool(trace))
    passes = untraced + traced
    tasks = [t for r in passes for t in r["tasks"]]
    failed = [t for t in tasks if not t[1]]
    counts_repeat = all(r["counts"] == passes[0]["counts"] for r in passes)

    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_total_mb(),
        "python": platform.python_version(),
        **passes[0]["versions"],
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}")
    if not counts_repeat:
        print("FAILED exact counts differ between passes")
    walls = [r["wall_s"] for r in untraced]
    rss = [r["peak_rss_mb"] for r in untraced]
    print(describe("wall_s", walls, "s"))
    print(describe("setup_s", setups, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(f"{'fail_frac':<26} {len(failed) / len(tasks):12.6g} ratio  "
          f"({len(failed)} of {len(tasks)} tasks)")

    if trace:
        metrics = layer_metrics(untraced, traced, imports)
        for name, (value, unit) in metrics.items():
            print(f"{name:<26} {value:12.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        dump = {"stamp": stamp, "spans": [s for r in traced for s in r["spans"]]}
        path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps(dump))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": (median(walls), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median(rss), "MB"),
        }
    result = {
        "correct": not failed and counts_repeat,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    if not (ROOT / "src" / "e0graph" / "__init__.py").is_file():
        sys.exit(f"no e0graph sources under {ROOT / 'src'}; run from a source checkout")
    try:
        sys.exit(main())
    except ChildFailed as exc:
        sys.exit(str(exc))
