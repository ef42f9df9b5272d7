"""Repo benchmark: one workload per invocation, timed and checked.

    python3 repobench/run.py --workload swarm-static-5k --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports the library from its ``src/``.
The process first compares a scaled-down copy of the workload on the
reference and fast engines (untimed), runs one untimed warm-up operation,
then repeats operations until ``--seconds`` are spent (at least two).
Every operation's output is checked; a failed check counts that operation
as failed.

``--trace 0`` reports the end-to-end metrics (medians over operations):
``setup_s``, ``wall_s``, ``steps_per_s`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced operations and reports per-layer metrics,
the tracing overhead, and fails the run when a workload stops exercising
the layers it was chosen for.  The last line of standard output is the
JSON result; the full record, with provenance and every operation's raw
and host-speed-corrected times, goes to ``repobench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import Sampler
from tracing import COUNTS, RATIOS, Tracer, exercise_failures, metric_names, traced, unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_OPS = 2

# Spread (IQR/median over five seeds of per-run medians) of unchanged code
# on the tuning VM, raw vs host-speed-corrected (hostspeed.py), which decided
# that every workload reports corrected times.  Kernel brackets timed before
# and after each phase were tried first and made the swarm times less steady.
# Raw and corrected times are both kept in the record.
AA_SPREAD = {
    "swarm-static-5k": {
        "setup_s": {"raw": 0.153, "corrected": 0.039},
        "wall_s": {"raw": 0.143, "corrected": 0.066},
    },
    "swarm-churn-outage-2k": {
        "setup_s": {"raw": 0.261, "corrected": 0.115},
        "wall_s": {"raw": 0.149, "corrected": 0.051},
        "peer_rounds_per_s": {"raw": 0.176, "corrected": 0.037},
    },
    "paper-model-10k": {
        "setup_s": {"raw": 0.281, "corrected": 0.034},
        "wall_s": {"raw": 0.220, "corrected": 0.022},
        "initiatives_per_s": {"raw": 0.270, "corrected": 0.098},
    },
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Put this checkout's ``src/`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "version.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro.version

    if Path(repro.version.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported repro from {repro.version.__file__}, not {SRC}")


def _provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown (checkout is not a git repository)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_op(workload, tracer=None) -> dict:
    """One operation: set-up, execution and output check.

    Untraced phases run under a host-speed ``Sampler``, whose clock leaves
    out the sampling time.  Traced phases run under the tracer instead, so
    span times hold no sampling time and their factors are 1.
    """
    gc.collect()
    setups = []
    with traced(tracer) if tracer else Sampler() as setup_probe:
        clock = time.perf_counter if tracer else setup_probe.clock
        for _ in range(workload.setup_reps):
            sim = None
            start = clock()
            sim = workload.setup()
            setups.append(clock() - start)
    held = workload.pieces_held(sim)
    with traced(tracer) if tracer else Sampler() as wall_probe:
        clock = time.perf_counter if tracer else wall_probe.clock
        start = clock()
        output, run_window = workload.execute(sim, clock)
        wall = clock() - start
    failures = workload.check(sim, output)
    op = {
        "setup_raw_s": setups,
        "wall_raw_s": wall,
        "run_raw_s": run_window[1] - run_window[0],
        "setup_factor": 1.0 if tracer else setup_probe.factor(),
        "wall_factor": 1.0 if tracer else wall_probe.factor(),
        "run_factor": 1.0 if tracer else wall_probe.factor(*run_window),
        "steps": workload.steps(output),
        "failures": failures,
    }
    if tracer is not None:
        op["layers"] = _layer_metrics(workload, tracer, sim, output, held)
    op["fingerprint"] = workload.fingerprint(output)
    return op


def _layer_metrics(workload, tracer, sim, output, held) -> dict:
    metrics = tracer.metrics()
    metrics.update({name: 0 for name in COUNTS + RATIOS})
    metrics.update(workload.counts(sim, output, held))
    acquires = metrics["fast.bitfields.indices.calls"]
    if acquires:
        metrics["fast.swarm.pieces_per_acquire"] = metrics["fast.swarm.pieces_acquired"] / acquires
    er_busy = metrics["graphs.erdos_renyi.busy_s"]
    if er_busy:
        metrics["graphs.edges_per_s"] = metrics["graphs.edges"] / er_busy
    return metrics


def _times(ops, corrected: bool):
    """Set-up samples, wall times and step rates of ``ops``."""
    setups, walls, rates = [], [], []
    for op in ops:
        fs, fw, fr = (op["setup_factor"], op["wall_factor"], op["run_factor"]) if corrected else (1, 1, 1)
        setups.extend(s * fs for s in op["setup_raw_s"])
        walls.append(op["wall_raw_s"] * fw)
        rates.append(op["steps"] / (op["run_raw_s"] * fr))
    return setups, walls, rates


def _summary(values):
    if not values:
        return None
    ordered = sorted(values)
    return {"median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1], "n": len(ordered)}


def main(argv=None) -> int:
    args = _parse(argv)
    import_library()
    from workloads import make_workload

    if args.workload not in AA_SPREAD:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = make_workload(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "inputs": workload.describe(),
        "provenance": _provenance(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "host_speed_correction": {"applied": True, "aa_iqr_over_median": AA_SPREAD[args.workload]},
    }
    problems = []

    reference = workload.small_checksum("reference")
    fast = workload.small_checksum("fast")
    if reference != fast:
        problems.append("scaled-down copy differs between reference and fast engines")
    record["engine_equivalence"] = reference == fast

    warm = run_op(workload)
    problems.extend(f"warm-up: {f}" for f in warm["failures"])
    estimate = warm["wall_raw_s"] + sum(warm["setup_raw_s"])

    ops, traced_ops = [], []
    deadline = time.perf_counter() + args.seconds
    while len(ops) + len(traced_ops) < MIN_OPS or time.perf_counter() + estimate <= deadline:
        started = time.perf_counter()
        if args.trace and len(ops) > len(traced_ops):
            traced_ops.append(run_op(workload, Tracer()))
        else:
            ops.append(run_op(workload))
        estimate = time.perf_counter() - started
    if args.trace and not traced_ops:
        traced_ops.append(run_op(workload, Tracer()))

    every = ops + traced_ops
    failed = sum(1 for op in every if op["failures"])
    for op in every:
        problems.extend(op["failures"])
    setups, walls, rates = _times(ops, True)

    if args.trace:
        fingerprints = {repr(op["fingerprint"]) for op in every}
        if len(fingerprints) != 1:
            problems.append("traced outputs differ from untraced outputs")
        layer_names = metric_names()
        per_layer = {
            name: statistics.median(op["layers"].get(name, 0) for op in traced_ops)
            for name in layer_names
            if name != "trace.overhead_s"
        }
        # Traced phases are not host-speed sampled: compare raw seconds.
        per_layer["trace.overhead_s"] = statistics.median(
            op["wall_raw_s"] for op in traced_ops
        ) - statistics.median(op["wall_raw_s"] for op in ops)
        problems.extend(exercise_failures(args.workload, per_layer))
        metrics = {
            name: {"value": per_layer[name], "unit": unit(name)} for name in layer_names
        }
        record["per_layer"] = per_layer
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    record["summary"] = {}
    for kind, times in (("raw", _times(ops, False)), ("corrected", _times(ops, True))):
        for name, values in zip(("setup_s", "wall_s", workload.step_metric), times):
            record["summary"][f"{name}_{kind}"] = _summary(values)
    for op in every:
        op.pop("fingerprint")
    record["operations"] = ops
    record["traced_operations"] = traced_ops
    record["problems"] = problems
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if not args.trace:
        step_rate = metrics["steps_per_s"]["value"]
        print(f"{args.workload}: {workload.step_metric} = {step_rate:.6g} 1/s (reported as steps_per_s)")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
