"""Fresh process that runs one workload's ops in a closed loop.

    python3 perfbench/worker.py JOB.json      run the ops listed in the job
    python3 perfbench/worker.py --import-only ROOT
                                              time ``import infodensity,
                                              infodensity.cli`` from ROOT/src,
                                              then the calibration

Only the standard library is imported before the timed import of the package.
Each op is one in-process call to ``infodensity.cli.main(argv)`` with stdout
and stderr captured; the next op starts only after the previous one returns.
The calibration (``calibration.py``) is timed right after each op, in this
process. The result (op and calibration times, exit codes, reports, peak RSS
and, when traced, the per-op layer counts) is written as JSON to the path the
job names.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import infodensity
    import infodensity.cli

    elapsed = time.perf_counter() - start
    if not os.path.abspath(infodensity.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported infodensity from {infodensity.__file__}, not from {src}")
    return infodensity.cli, elapsed


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is a failed op, not a failed run
            code = -1
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    if sys.argv[1] == "--import-only":
        _, elapsed = import_package(sys.argv[2])
        from calibration import calibrate  # next to this script, which is on sys.path

        calibrate()  # warm-up
        print(json.dumps({"import_s": elapsed, "calibration_s": calibrate()}))
        return
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    cli, import_s = import_package(job["root"])
    tracer = None
    if job["trace"]:
        from spans import Tracer  # next to this script, which is on sys.path

        tracer = Tracer("infodensity", job["targets"], {"sampling.sample_density": lambda batch: batch.n})

    from calibration import calibrate

    ops = [dict(run_op(cli, job["warmup"]), index=-1, traced=False, calibration_s=calibrate())]
    begin = time.perf_counter()
    for index, argv in enumerate(job["ops"]):
        # Traced runs alternate untraced and traced ops, so the tracing
        # overhead is measured on the same models, machine state and run.
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            tracer.begin_op(index)
        op = dict(run_op(cli, argv), index=index, traced=traced)
        if traced:
            op["layers"] = tracer.end_op()
            tracer.uninstall()
        op["calibration_s"] = calibrate()
        ops.append(op)
        # A traced run needs at least one untraced and one traced op.
        if time.perf_counter() - begin >= job["seconds"] and (tracer is None or index >= 1):
            break

    result = {
        "import_s": import_s,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if job["selftest"]:
        result["selftest"] = run_op(cli, job["selftest"])
    if tracer is not None:
        tracer.write_spans(job["spans_path"])
        result["trace"] = {
            "sites": tracer.sites,
            "missing": tracer.missing,
            "generators": sorted(tracer.generators),
            "spans": tracer.span_count,
            "off_thread_calls": tracer.off_thread,
        }
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
