"""Command-line driver: load models from files, run analyses, emit JSON reports.

Subcommands
-----------
analyze       analytic report (multiinformation both ways, variance,
              cumulants, CGF domain, optional CGF grid / oracle / MC sections)
simulate      seeded Monte Carlo validation of the analytic cumulants
oracle-check  loop-enumeration sums vs matrix-power traces
homogeneous   equicorrelation closed forms vs the general machinery

Exit codes: 0 pass, 1 a check failed, 2 invalid input, 3 resource or domain
limit. Reports go to stdout as JSON (CSV for flat tables on request); errors
go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from ._linalg import rel_close
from .errors import (
    BadPartition,
    BatchTooSmall,
    BlockNotScalar,
    CombinatorialLimit,
    CumulantOverflow,
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    OutOfDomain,
    SameBlock,
    ZeroVariance,
)
from .homogeneous import (
    HomogeneousModel,
    asymptotic_standardized_limit,
    homogeneous_covariance,
    homogeneous_cumulant,
    homogeneous_mean,
    standardized_cumulant,
)
from .loops import DEFAULT_LOOP_CAP, rooted_loop_count, trace_via_loops
from .measures import cgf, cgf_domain, cumulants, multiinformation, multiinformation_from_gamma, variance
from .model import model_fingerprint, validate_model
from .sampling import mc_validate

AGREEMENT_TOL = 1e-9
ORACLE_TOL = 1e-9

_INPUT_ERRORS = (
    DimensionMismatch,
    NonFiniteInput,
    NotSymmetric,
    NotPositiveDefinite,
    BadPartition,
    SameBlock,
    BlockNotScalar,
    ZeroVariance,
    BatchTooSmall,
)
_LIMIT_ERRORS = (OutOfDomain, CombinatorialLimit, CumulantOverflow)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except _LIMIT_ERRORS as exc:
        _emit_error(exc)
        return 3
    except _INPUT_ERRORS as exc:
        _emit_error(exc)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        sys.stdout.write(_render_csv(payload))
    else:
        print(json.dumps(_jsonable(payload, exact=args.exact), indent=2))
    return code


def _emit_error(exc) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("pivot_index", "order", "count", "cap", "length", "t"):
        if hasattr(exc, attr):
            doc[attr] = getattr(exc, attr)
    if isinstance(exc, OutOfDomain):
        doc["domain"] = _domain_dict(exc.domain)
    print(json.dumps(_jsonable(doc, exact=False)), file=sys.stderr)


def _jsonable(value, exact: bool):
    """Make a payload JSON-safe; with exact=True floats become 17-digit strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v, exact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, exact) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if not math.isfinite(v):
            return repr(v)
        return format(v, ".17g") if exact else v
    if isinstance(value, np.integer):
        return int(value)
    return value


def _render_csv(payload) -> str:
    rows = payload["rows"]
    columns = list(rows[0].keys())
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row[c] is None else row[c] for c in columns])
    return out.getvalue()


def _domain_dict(domain) -> dict:
    return {
        "lower": None if math.isinf(domain.lower) else domain.lower,
        "upper": None if math.isinf(domain.upper) else domain.upper,
    }


def _load_model(args):
    if getattr(args, "matrix_csv", None):
        if not getattr(args, "partition", None):
            raise BadPartition("--matrix-csv requires --partition \"n1,n2,...\"")
        cov = np.loadtxt(args.matrix_csv, delimiter=",", ndmin=2)
        sizes = [int(s) for s in args.partition.split(",")]
        return validate_model(None, cov, sizes)
    if not args.model:
        raise DimensionMismatch("provide a model JSON file or --matrix-csv with --partition")
    with open(args.model) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    if "covariance" not in doc or "partition" not in doc:
        raise ValueError("model file needs 'covariance' and 'partition' keys")
    return validate_model(doc.get("mean"), doc["covariance"], doc["partition"])


def _parse_t_grid(text: str) -> np.ndarray:
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"--t-grid expects 'a:b:steps', got {text!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteInput(f"--t-grid bounds must be finite, got {text!r}")
    if steps < 1:
        raise ValueError(f"--t-grid needs at least 1 step, got {steps}")
    return np.linspace(a, b, steps)


def _oracle_rows(model, max_l: int):
    if max_l < 1:
        raise ValueError(f"the longest loop length must be >= 1, got {max_l}")
    rows = []
    ok = True
    for l in range(1, max_l + 1):
        loop_sum = trace_via_loops(model, l)
        matrix_trace = float(np.trace(np.linalg.matrix_power(model.gamma, l)))
        row_ok = rel_close(loop_sum, matrix_trace, ORACLE_TOL)
        ok = ok and row_ok
        rows.append(
            {
                "l": l,
                "loop_count": rooted_loop_count(model.partition.n_blocks, l),
                "loop_sum": loop_sum,
                "matrix_trace": matrix_trace,
                "abs_diff": abs(loop_sum - matrix_trace),
                "ok": row_ok,
            }
        )
    return rows, ok


def _cmd_analyze(args):
    model = _load_model(args)
    info_logdet = multiinformation(model)
    info_gamma = multiinformation_from_gamma(model)
    agreement = abs(info_logdet - info_gamma) <= AGREEMENT_TOL
    domain = cgf_domain(model)
    seq = cumulants(model, args.cumulants)

    report = {
        "fingerprint": model_fingerprint(model),
        "dimension": model.dimension,
        "block_sizes": list(model.partition.block_sizes),
        "multiinformation": info_logdet,
        "multiinformation_from_gamma": info_gamma,
        "multiinformation_agreement": {
            "abs_diff": abs(info_logdet - info_gamma),
            "tolerance": AGREEMENT_TOL,
            "ok": agreement,
        },
        "variance": variance(model),
        "cumulants": list(seq.values),
        "gamma_eigenvalues": [float(v) for v in model.gamma_eigenvalues],
        "cgf_domain": _domain_dict(domain),
    }
    code = 0 if agreement else 1

    if args.t_grid:
        grid = _parse_t_grid(args.t_grid)
        values = cgf(model, grid)  # OutOfDomain -> exit 3
        report["cgf_grid"] = {"t": grid.tolist(), "cgf": values.tolist()}
    if args.oracle_max_l is not None:
        rows, ok = _oracle_rows(model, args.oracle_max_l)
        report["oracle"] = {"max_l": args.oracle_max_l, "rows": rows, "ok": ok}
        code = code or (0 if ok else 1)
    if args.mc_n is not None:
        mc = mc_validate(model, args.mc_n, args.mc_seed, args.mc_max_order, threads=args.threads)
        report["monte_carlo"] = mc
        code = code or (0 if mc["ok"] else 1)
    return report, code


def _cmd_simulate(args):
    model = _load_model(args)
    report = mc_validate(
        model,
        args.n,
        args.seed,
        args.max_order,
        threads=args.threads,
        corrupt_order=args.corrupt_order,
    )
    report["threads"] = args.threads
    return report, 0 if report["ok"] else 1


def _cmd_oracle_check(args):
    model = _load_model(args)
    rows, ok = _oracle_rows(model, args.max_l)
    report = {
        "fingerprint": model_fingerprint(model),
        "max_l": args.max_l,
        "loop_cap": DEFAULT_LOOP_CAP,
        "tolerance": ORACLE_TOL,
        "rows": rows,
        "ok": ok,
    }
    return report, 0 if ok else 1


def _cmd_homogeneous(args):
    dims = [args.d]
    if args.sweep_d:
        dims = list(dict.fromkeys(dims + [int(s) for s in args.sweep_d.split(",")]))
    rows = []
    for d in dims:
        hm = HomogeneousModel(dimension=d, rho=args.rho)
        model = homogeneous_covariance(hm)
        seq = cumulants(model, args.max_l)
        mean_closed = homogeneous_mean(hm)
        rows.append(
            {
                "d": d,
                "rho": args.rho,
                "l": 1,
                "closed_form": mean_closed,
                "general": seq.kappa(1),
                "abs_diff": abs(mean_closed - seq.kappa(1)),
                "standardized": None,
                "asymptotic_limit": None,
            }
        )
        for l in range(2, args.max_l + 1):
            closed = homogeneous_cumulant(hm, l)
            rows.append(
                {
                    "d": d,
                    "rho": args.rho,
                    "l": l,
                    "closed_form": closed,
                    "general": seq.kappa(l),
                    "abs_diff": abs(closed - seq.kappa(l)),
                    "standardized": standardized_cumulant(hm, l) if args.rho != 0 else None,
                    "asymptotic_limit": asymptotic_standardized_limit(l),
                }
            )
    report = {
        "parameters": {"d": args.d, "rho": args.rho, "max_l": args.max_l, "sweep_d": dims[1:]},
        "rows": rows,
    }
    return report, 0


def _add_model_arguments(sub):
    sub.add_argument("model", nargs="?", help="model JSON file (covariance, partition, optional mean)")
    sub.add_argument("--matrix-csv", help="headerless d x d covariance CSV (alternative input)")
    sub.add_argument("--partition", help="comma-separated block sizes, used with --matrix-csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    analyze.add_argument("--mc-max-order", type=int, default=4)
    analyze.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    analyze.add_argument("--exact", action="store_true", help="floats as 17-significant-digit strings")
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = commands.add_parser("simulate", help="Monte Carlo validation")
    _add_model_arguments(simulate)
    simulate.add_argument("--n", type=int, required=True, help="number of draws")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-order", type=int, default=4)
    simulate.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    simulate.add_argument(
        "--corrupt-order",
        type=int,
        metavar="L",
        help="harness self-test: corrupt one analytic order so the run must fail",
    )
    simulate.add_argument("--exact", action="store_true")
    simulate.set_defaults(handler=_cmd_simulate)

    oracle = commands.add_parser("oracle-check", help="loop sums vs matrix-power traces")
    _add_model_arguments(oracle)
    oracle.add_argument("--max-l", type=int, default=6)
    oracle.add_argument("--exact", action="store_true")
    oracle.set_defaults(handler=_cmd_oracle_check)

    hom = commands.add_parser("homogeneous", help="equicorrelation closed forms")
    hom.add_argument("--d", type=int, required=True)
    hom.add_argument("--rho", type=float, required=True)
    hom.add_argument("--max-l", type=int, default=4)
    hom.add_argument("--sweep-d", metavar="D1,D2,...", help="extra dimensions to tabulate")
    hom.add_argument("--format", choices=("json", "csv"), default="json")
    hom.add_argument("--exact", action="store_true")
    hom.set_defaults(handler=_cmd_homogeneous)

    return parser


if __name__ == "__main__":
    sys.exit(main())
