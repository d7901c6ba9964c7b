"""Command-line driver: load models from files, run analyses, emit JSON reports.

Subcommands
-----------
analyze       analytic report (multiinformation both ways, variance,
              cumulants, CGF domain, optional CGF grid / oracle / MC sections)
simulate      seeded Monte Carlo validation of the analytic cumulants
oracle-check  loop-enumeration sums vs the spectrum's power sums
homogeneous   equicorrelation closed forms vs the general machinery

Every subcommand but ``homogeneous`` takes a model file as its required
first argument. ``analyze``'s oracle section is ``oracle-check``'s document
without the fingerprint, and its Monte Carlo section is ``simulate``'s
document without the fingerprint, at orders 1..4 on the usable CPUs,
``simulate``'s default thread count.

Every agreement a report makes is a check record: a dict with ``abs_diff``
(or ``z``), ``margin`` (|difference| / bound, or |z| / threshold) and ``ok``.

Exit codes: 0 pass, 1 some check record in the report has ``"ok": false``,
2 invalid input (a usage error included), 3 resource or domain limit.
Reports go to stdout as indented JSON; errors go to stderr as one-line
JSON. orjson writes both: floats in their shortest round-trip form, a
non-finite float as null, so every document is strict JSON. Only
``--help`` prints text.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys

import numpy as np
import orjson

from ._linalg import _usable_cpus
from .errors import CombinatorialLimit, CumulantOverflow, InfoDensityError, NonFiniteInput, OutOfDomain
from .homogeneous import (
    HomogeneousModel,
    asymptotic_standardized_limit,
    homogeneous_covariance,
    homogeneous_cumulant,
    standardized_cumulant,
)
from .loops import DEFAULT_LOOP_CAP, _loop_counts, trace_via_loops
from .measures import (
    _cumulant_order,
    _matrix_traces,
    cgf,
    cgf_domain,
    cumulants,
    multiinformation_from_gamma,
    variance,
)
from .model import _float_array, _integral_at_least, model_fingerprint, validate_model
from .sampling import mc_validate

AGREEMENT_TOL = 1e-9
ORACLE_TOL = 1e-9
# Most float64 entries of any one array a request makes the CLI form, 32 MiB.
# ``analyze --t-grid`` evaluates steps x d terms: ``cgf`` forms one steps x d
# array and a temporary of its size, so a grid above the cap exits 3 before
# the grid itself is allocated. ``homogeneous`` forms one d x d covariance per
# dimension: a d with d^2 above the cap exits 3 before any model is formed.
MAX_ARRAY_ENTRIES = 2**22

_LIMIT_ERRORS = (OutOfDomain, CombinatorialLimit, CumulantOverflow, MemoryError)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
    except _LIMIT_ERRORS as exc:
        _emit_error(exc)
        return 3
    # Every input error of the package is a ValueError; the parser raises ArgumentError.
    except (ValueError, OSError, argparse.ArgumentError) as exc:
        _emit_error(exc)
        return 2
    try:
        print(orjson.dumps(report, option=orjson.OPT_INDENT_2).decode())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe; send the rest of the output, and the
        # flush at interpreter exit, to devnull instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return _exit_code(report)


def _check(value: float, reference: float, bound: float) -> dict:
    """A check record: |value - reference|, the ``bound`` it is held to, and that difference over the bound."""
    abs_diff = abs(value - reference)
    return {"abs_diff": abs_diff, "bound": bound, "margin": abs_diff / bound, "ok": abs_diff <= bound}


def _exit_code(report: dict) -> int:
    """1 when some check record (a dict with an ``ok`` key) in the report failed, else 0.

    Walks nested dicts and lists of dicts; lists of numbers are not entered.
    """
    pending = [report]
    while pending:
        record = pending.pop()
        if not record.get("ok", True):
            return 1
        for value in record.values():
            if isinstance(value, dict):
                pending.append(value)
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                pending.extend(value)
    return 0


def _emit_error(exc) -> None:
    """One JSON line on stderr: the error's name and message, then the fields the package's own errors set.

    Other exceptions carry only the two, so a decode error's copy of the whole input is not printed.
    """
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InfoDensityError):
        doc.update(vars(exc))
    print(orjson.dumps(doc).decode(), file=sys.stderr)


def _load_model(args):
    with open(args.model, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        # orjson refuses what the standard library reads leniently (NaN and
        # Infinity literals, numbers beyond the double range) and every file
        # that is not JSON; reading the same bytes as UTF-8 text again gives
        # those inputs the standard library's result or error message.
        doc = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    del data
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    if "covariance" not in doc or "partition" not in doc:
        raise ValueError("model file needs 'covariance' and 'partition' keys")
    # The decoded lists take 4 d^2 doubles (a float object and a pointer per
    # entry); the array replaces them before validation allocates.
    covariance = _float_array(doc.pop("covariance"), "covariance")
    return validate_model(doc.get("mean"), covariance, doc["partition"])


def _parse_t_grid(text: str, dimension: int) -> np.ndarray:
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"--t-grid expects 'a:b:steps', got {text!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteInput(f"--t-grid bounds must be finite, got {text!r}")
    if steps < 1:
        raise ValueError(f"--t-grid needs at least 1 step, got {steps}")
    if steps * dimension > MAX_ARRAY_ENTRIES:
        raise MemoryError(
            f"--t-grid of {steps} steps at dimension {dimension} needs {steps * dimension} CGF terms, "
            f"above the cap of {MAX_ARRAY_ENTRIES} (MAX_ARRAY_ENTRIES)"
        )
    if math.isinf(b - a):
        # The span overflows: halving the bounds and doubling the grid is exact at this magnitude.
        return 2 * np.linspace(a / 2, b / 2, steps)
    return np.linspace(a, b, steps)


def _oracle_section(model, loop_counts: list[int]) -> dict:
    """The loop oracle's section: one row per length 1..L, the loop sum against Σλˡ, and the bound.

    Σλˡ over G's spectrum is reported as ``matrix_trace``, since it equals
    tr(Gˡ). It comes from ``measures._matrix_traces``, the power sums every
    κ_l is computed from, over the same spectrum scaled by 2^e, so that up to
    order 20 (l−1)!/2 · ``matrix_trace`` is κ_l bit for bit. ``oracle-check``
    reports this section after the fingerprint, and ``analyze --oracle-max-l``
    embeds it.
    """
    rows = []
    traces = _matrix_traces(model, len(loop_counts))
    for l, (count, matrix_trace) in enumerate(zip(loop_counts, traces), start=1):
        loop_sum = trace_via_loops(model, l)
        rows.append(
            {
                "l": l,
                "loop_count": count,
                "loop_sum": loop_sum,
                "matrix_trace": matrix_trace,
                **_check(loop_sum, matrix_trace, ORACLE_TOL * max(1.0, abs(loop_sum), abs(matrix_trace))),
            }
        )
    return {
        "max_l": len(loop_counts),
        "loop_cap": DEFAULT_LOOP_CAP,
        "tolerance": ORACLE_TOL,
        "rows": rows,
        "ok": all(row["ok"] for row in rows),
    }


def _cmd_analyze(args):
    model = _load_model(args)
    grid = _parse_t_grid(args.t_grid, model.dimension) if args.t_grid else None
    loop_counts = None
    if args.oracle_max_l is not None:
        max_l = _integral_at_least(args.oracle_max_l, 1, "the longest loop length")
        loop_counts = _loop_counts(model.partition.n_blocks, range(1, max_l + 1))
    # One call gives κ₁ (the multiinformation), κ₂ for the variance record and the L cumulants
    # printed; it runs to order 2 when only κ₁ is printed, and refuses an L below 1 or over the cap.
    seq = cumulants(model, 2 if args.cumulants == 1 else args.cumulants)
    info_logdet, kappa_2 = seq.kappa(1), seq.kappa(2)
    info_gamma = multiinformation_from_gamma(model)
    var = variance(model)
    domain = cgf_domain(model)

    report = {
        "fingerprint": model_fingerprint(model),
        "dimension": model.dimension,
        "block_sizes": list(model.partition.block_sizes),
        "multiinformation": info_logdet,
        "multiinformation_from_gamma": info_gamma,
        "multiinformation_agreement": _check(info_logdet, info_gamma, AGREEMENT_TOL),
        "variance": var,
        "variance_agreement": _check(var, kappa_2, ORACLE_TOL * max(1.0, abs(var), abs(kappa_2))),
        "cumulants": list(seq.values[: args.cumulants]),
        "gamma_eigenvalues": model.gamma_eigenvalues.tolist(),
        "cgf_domain": {"lower": domain.lower, "upper": domain.upper},
    }

    if grid is not None:
        report["cgf_grid"] = {"t": grid.tolist(), "cgf": cgf(model, grid).tolist()}  # OutOfDomain -> exit 3
    # mc_validate refuses too few draws before it samples. It runs ahead of the oracle's
    # loops, so that the refusal comes before any loop is walked; its section still ends the report.
    monte_carlo = None if args.mc_n is None else mc_validate(model, args.mc_n, args.mc_seed, threads=_usable_cpus())
    if loop_counts is not None:
        report["oracle"] = _oracle_section(model, loop_counts)
    if monte_carlo is not None:
        report["monte_carlo"] = monte_carlo
    return report


def _cmd_simulate(args):
    model = _load_model(args)
    # The usable CPUs are counted here, on every run: the parser, and any default it holds, is built once.
    threads = _usable_cpus() if args.threads is None else args.threads
    checks = mc_validate(model, args.n, args.seed, args.max_order, threads=threads, corrupt_order=args.corrupt_order)
    return {"fingerprint": model_fingerprint(model), **checks}


def _cmd_oracle_check(args):
    model = _load_model(args)
    max_l = _integral_at_least(args.max_l, 1, "the longest loop length")
    loop_counts = _loop_counts(model.partition.n_blocks, range(1, max_l + 1))
    return {"fingerprint": model_fingerprint(model), **_oracle_section(model, loop_counts)}


def _cmd_homogeneous(args):
    models = [HomogeneousModel(dimension=d, rho=args.rho) for d in args.d]
    # Every dimension and the order are validated, and the order and each d held to their caps,
    # before the first model is formed.
    _cumulant_order(args.max_l)
    for d in (hm.dimension for hm in models):
        if d * d > MAX_ARRAY_ENTRIES:
            raise MemoryError(
                f"homogeneous at dimension {d} needs a d x d covariance of {d * d} entries, "
                f"above the cap of {MAX_ARRAY_ENTRIES} entries (32 MiB) per array (MAX_ARRAY_ENTRIES)"
            )
    rows = []
    for hm in models:
        d = hm.dimension
        model = homogeneous_covariance(hm)
        seq = cumulants(model, args.max_l)
        for l in range(1, args.max_l + 1):
            closed = homogeneous_cumulant(hm, l)
            standardized = (
                None if l == 1 or args.rho == 0 else _within_double_range(standardized_cumulant, hm, l)
            )
            limit = None if standardized is None else _within_double_range(asymptotic_standardized_limit, l)
            rows.append(
                {
                    "d": d,
                    "rho": args.rho,
                    "l": l,
                    "closed_form": closed,
                    "general": seq.kappa(l),
                    "abs_diff": abs(closed - seq.kappa(l)),
                    "standardized": standardized,
                    "asymptotic_limit": limit,
                }
            )
    return {
        "parameters": {"d": args.d, "rho": args.rho, "max_l": args.max_l},
        "rows": rows,
    }


def _within_double_range(ratio, *args):
    """``ratio(*args)``, or None when it lies beyond the double range."""
    try:
        return ratio(*args)
    except CumulantOverflow:
        return None


def _dimensions(text: str) -> list[int]:
    """``--d``'s comma-separated dimensions, each once, in the order they first appear."""
    try:
        return list(dict.fromkeys(int(item) for item in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects D1,D2,... of integers, got {text!r}") from None


def _add_model_arguments(sub):
    sub.add_argument("model", help="model JSON file (covariance, partition, optional mean)")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that ``main`` reports them as JSON; subparsers share the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = _Parser(
        prog="infodensity",
        description="Analytic and Monte Carlo analysis of the multiinformation density "
        "of partitioned Gaussian models.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="analytic report for a model file")
    _add_model_arguments(analyze)
    analyze.add_argument("--cumulants", type=int, default=4, metavar="L", help="highest cumulant order")
    analyze.add_argument("--t-grid", metavar="A:B:STEPS", help="evaluate the CGF on a grid")
    analyze.add_argument("--oracle-max-l", type=int, metavar="L", help="add a loop-oracle section")
    analyze.add_argument("--mc-n", type=int, metavar="N", help="add a Monte Carlo section with N draws")
    analyze.add_argument("--mc-seed", type=int, default=0)
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = commands.add_parser("simulate", help="Monte Carlo validation")
    _add_model_arguments(simulate)
    simulate.add_argument("--n", type=int, required=True, help="number of draws")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-order", type=int, default=4)
    simulate.add_argument("--threads", type=int)
    simulate.add_argument(
        "--corrupt-order",
        type=int,
        metavar="L",
        help="harness self-test: corrupt one analytic order so the run must fail",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    oracle = commands.add_parser("oracle-check", help="loop sums vs eigenvalue power sums")
    _add_model_arguments(oracle)
    oracle.add_argument("--max-l", type=int, default=6)
    oracle.set_defaults(handler=_cmd_oracle_check)

    hom = commands.add_parser("homogeneous", help="equicorrelation closed forms")
    hom.add_argument("--d", type=_dimensions, required=True, metavar="D1,D2,...", help="dimensions to tabulate")
    hom.add_argument("--rho", type=float, required=True)
    hom.add_argument("--max-l", type=int, default=4)
    hom.set_defaults(handler=_cmd_homogeneous)

    return parser


if __name__ == "__main__":
    sys.exit(main())
