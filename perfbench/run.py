"""End-to-end and per-layer benchmark of the ``infodensity`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The load is a closed loop with one client:
a fresh worker process (``worker.py``) issues one command at a time as an
in-process call to ``infodensity.cli.main(argv)``, on models generated here
from ``--seed`` before timing. Each report is checked against numpy references
computed here (``workloads.py``); an op fails on a non-zero exit, an error
document or any disagreement.

Times of the end-to-end metrics are scaled to a reference host speed by a
fixed calibration timed after every op and every set-up sample, in the same
process (``calibration.py``); the wall times are printed next to them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the ops again with wrappers around every public function of the measured
modules (``spans.py``) and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Work files, results and spans go to ``.perfbench_work/`` in the source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np
import scipy

from calibration import REFERENCE_S
from spans import LAYERS, metric_layer
from workloads import POOL, WORKLOADS, make_covariance, make_op, make_rng, perturbed, reference, total_loop_count, verify, write_model

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it (nearest rank).

    With TAIL_BEYOND or fewer samples no percentile qualifies, and the maximum
    is reported as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, op_count: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "op_count": op_count,
    }


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    # A fixed hash seed removes one source of process-to-process variation
    # (dict and set layout); the program does not depend on hash order.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(argv[1:3])} did not end within {timeout:.0f} s")
    if done.returncode != 0:
        fail(f"{' '.join(argv[1:3])} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "infodensity", "cli.py")):
        fail(f"no infodensity sources under {ROOT}/src; run from the root of a source tree")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} is missing")
    with open(spec_path) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]

    run_dir = os.path.join(WORK, f"run-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        result = measure(args, spec, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, spec: dict, workload, run_dir: str) -> dict:
    rng = make_rng(workload, args.seed)
    refs, argvs, expects = [], [], []
    for i in range(POOL + 1):  # model 0 is the warm-up op's
        cov = make_covariance(rng, workload.dimension)
        path = os.path.join(run_dir, f"model-{i}.json")
        write_model(path, cov, workload.block_sizes)
        ref = reference(cov, workload.block_sizes)
        argv, expect = make_op(workload, path, ref, rng)
        refs.append(ref)
        argvs.append(argv)
        expects.append(expect)
    selftest_argv = None
    if workload.command == "simulate":
        selftest_argv = argvs[0] + ["--corrupt-order", "2"]

    targets = sorted(
        {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2}
    )
    job = {
        "root": ROOT,
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup": argvs[0],
        "ops": argvs[1:],
        "selftest": selftest_argv,
        "targets": targets,
        "out": os.path.join(run_dir, "worker.json"),
        "spans_path": os.path.join(WORK, f"spans-{workload.name}.tsv"),
    }
    job_path = os.path.join(run_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            done = run_child([sys.executable, os.path.join(HERE, "worker.py"), "--import-only", ROOT], timeout=60)
            setup.append(json.loads(done.stdout))
    run_child([sys.executable, os.path.join(HERE, "worker.py"), job_path], timeout=args.seconds + 120)
    with open(job["out"]) as fh:
        out = json.load(fh)

    faults = []
    failures = {}
    ops = out["ops"]
    for op in ops:
        i = op["index"] + 1
        reason = verify(workload, op["code"], op["stdout"], op["stderr"], refs[i], expects[i])
        op["ok"] = reason is None
        if reason is not None:
            failures[op["index"]] = reason
    # The checks must reject a report that is wrong: a correct report against
    # a perturbed reference, and (simulate) a run with a corrupted analytic order.
    first = ops[0]
    selftests = {
        "perturbed_reference": verify(workload, first["code"], first["stdout"], first["stderr"], perturbed(refs[0]), expects[0]),
    }
    if "selftest" in out:
        st = out["selftest"]
        selftests["corrupt_order_2"] = verify(workload, st["code"], st["stdout"], st["stderr"], refs[0], expects[0])
    for name, reason in selftests.items():
        if reason is None:
            faults.append(f"self-test {name} was not detected as a failure")

    timed = [op for op in ops if op["index"] >= 0]
    attempted, failed = len(ops), len(failures)
    prov = provenance(args, len(timed))
    notes = []
    if args.trace:
        metrics, details, notes = layer_metrics(spec, workload, out, timed, faults, prov["source_sha256"])
    else:
        metrics, details = end_to_end_metrics(spec, out, timed, setup)
        details["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted}

    record = {
        "provenance": prov,
        "metrics": metrics,
        "details": details,
        "failures": failures,
        "self_tests": {k: v or "passed (not detected)" for k, v in selftests.items()},
        "faults": faults,
        "notes": notes,
        "trace": out.get("trace"),
        "op_seconds": [op["seconds"] for op in timed],
        "calibration_seconds": [op["calibration_s"] for op in timed],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ops {len(timed)} timed + 1 warm-up")
    for name, m in metrics.items():
        extra = details.get(name, {})
        note = "  " + ", ".join(f"{k}={v}" for k, v in extra.items()) if extra else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}")
    if "failed_frac" in details:
        ff = details["failed_frac"]
        print(f"  {'failed_frac':44s} {ff['value']:.6g} ratio  ({ff['failed']}/{ff['attempted']})")
    for note in notes:
        print(f"  {note}")
    for index, reason in failures.items():
        print(f"  FAILED op {index}: {reason}")
    for name, reason in selftests.items():
        print(f"  self-test {name}: counted as failed ({reason})" if reason else f"  self-test {name}: NOT DETECTED")
    for fault in faults:
        print(f"  BENCHMARK FAULT: {fault}")
    print("provenance " + json.dumps(prov))
    return {"correct": failed == 0 and not faults, "attempted": attempted, "failed": failed, "metrics": metrics}


def scaled(seconds: float, calibration_s: float) -> float:
    """Wall seconds at the reference host speed of calibration.py."""
    return seconds * REFERENCE_S / calibration_s


def end_to_end_metrics(spec: dict, out: dict, timed: list, setup: list) -> tuple[dict, dict]:
    wall = [op["seconds"] for op in timed]
    times = [scaled(op["seconds"], op["calibration_s"]) for op in timed]
    tail_value, pct = tail(times)
    values = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": sum(op["ok"] for op in timed) / sum(times),
        "setup_s": statistics.median(scaled(s["import_s"], s["calibration_s"]) for s in setup),
        "peak_rss_mb": out["maxrss_kb"] / 1024.0,
    }
    details = {
        "op_p50_s": {"samples": len(times), "wall_s": round(statistics.median(wall), 4), "host_slowdown": round(statistics.median(op["calibration_s"] for op in timed) / REFERENCE_S, 4)},
        "op_tail_s": {"percentile": pct, "samples": len(times), "wall_s": round(tail(wall)[0], 4)},
        "ops_per_s": {"wall_1/s": round(sum(op["ok"] for op in timed) / sum(wall), 4)},
        "setup_s": {
            "samples": len(setup),
            "wall_s": round(statistics.median(s["import_s"] for s in setup), 4),
            "worker_import_s": round(out["import_s"], 4),
        },
    }
    return _as_metrics(spec["end_to_end"], values), details


def layer_metrics(spec: dict, workload, out: dict, timed: list, faults: list, digest: str) -> tuple[dict, dict]:
    traced = [op for op in timed if op["traced"]]
    plain = [op for op in timed if not op["traced"]]
    per_op = [op["layers"] for op in traced]
    names = sorted({n for layers in per_op for n in layers["calls"]})
    calls = {}
    for name in names:
        counts = {layers["calls"].get(name, 0) for layers in per_op}
        if len(counts) > 1:
            faults.append(f"{name} calls per op drift within the run: {sorted(counts)}")
        calls[name] = max(counts)
    if not any(not op["ok"] for op in timed):  # a failed op legitimately changes its counts
        check_repeat(workload.name, calls, digest, faults)

    values = {}
    for name in names:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = statistics.median(layers["self_s"].get(name, 0.0) for layers in per_op)
    for layer in LAYERS:
        prefix = metric_layer(layer) + "."
        values[f"{metric_layer(layer)}.self_s"] = statistics.median(
            sum(s for n, s in layers["self_s"].items() if n.startswith(prefix)) for layers in per_op
        )
    draws = statistics.median(layers["counters"].get("sampling.sample_density", 0) for layers in per_op)
    values["sampling.sample_density.draws"] = draws
    if workload.command == "simulate":
        n = workload.option("--n")
        if {layers["counters"].get("sampling.sample_density") for layers in per_op} != {n}:
            faults.append(f"sample_density draws per op are not {n}")
    if workload.command == "oracle-check":
        expected = total_loop_count(workload)
        if calls.get("loops.loop_trace") != expected:
            faults.append(f"loop_trace calls per op {calls.get('loops.loop_trace')} != closed form {expected}")
    traced_p50 = statistics.median(op["seconds"] for op in traced)
    plain_p50 = statistics.median(op["seconds"] for op in plain)
    values["trace_overhead_frac"] = (traced_p50 - plain_p50) / plain_p50

    details = {
        "trace_overhead_frac": {"traced_p50_s": round(traced_p50, 6), "untraced_p50_s": round(plain_p50, 6), "traced_ops": len(traced)},
    }
    notes = []
    if out["trace"]["off_thread_calls"]:
        notes.append(f"{out['trace']['off_thread_calls']} wrapped calls ran off the main thread, untimed")
    if out["trace"]["missing"]:
        notes.append(f"wrapper targets missing from the program (their metrics read 0): {', '.join(out['trace']['missing'])}")
    wanted = {m["name"] for m in spec["per_layer"]}
    # cli.main is the root span of every op; it is reported as cli.self_s.
    unlisted = sorted(n for n in names if f"{n}.calls" not in wanted and n != "cli.main")
    if unlisted:
        notes.append(f"traced but not listed in BENCHMARK.json: {', '.join(unlisted)}")
    return _as_metrics(spec["per_layer"], values), details, notes


def check_repeat(workload: str, calls: dict, digest: str, faults: list) -> None:
    """Exact call counts of the same source must repeat from run to run."""
    path = os.path.join(WORK, "exact_counts.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as fh:
            seen = json.load(fh)
    previous = seen.setdefault(digest, {}).get(workload)
    if previous is None:
        seen[digest][workload] = calls
        with open(path, "w") as fh:
            json.dump(seen, fh, indent=1)
    elif previous != calls:
        changed = sorted(n for n in set(previous) | set(calls) if previous.get(n) != calls.get(n))
        faults.append(f"call counts differ from an earlier run of the same source: {', '.join(changed)}")


def _as_metrics(declared: list, values: dict) -> dict:
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    main()
