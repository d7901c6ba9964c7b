"""Workload inputs, numpy references and report verification.

Every model follows the test-fixture law S = A A^T + 0.5 d I with A standard
normal, is drawn from the workload seed, and is used by one op only, so no
cache across calls can pass for a speed-up. References are computed here with
plain numpy, independently of the package: the multiinformation from
``slogdet`` of S and of each diagonal block, and the coupling spectrum from
``eigvals(S blockdiag(S_nn)^-1) - 1``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
# Every compared value is a sum of at most d*max(l, 100) float64 terms computed
# from an O(eps*d*||W||)-accurate spectrum (Weyl), so 64*d*eps*cond(W) per unit
# of magnitude leaves a margin of over a hundred for the well-conditioned
# models generated here. It is fixed before any run, not fitted to results.
TOL_FACTOR = 64.0
# Distinct models generated per run, about 1.7 times the ops a 20 s run makes
# at the sizing machine's speed; a run also ends when they are used up.
POOL = 64
# Relative shift applied to a reference by the self-test; far above any
# tolerance the rule above gives for these shapes.
PERTURBATION = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    block_sizes: tuple[int, ...]
    extra: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return sum(self.block_sizes)

    def option(self, flag: str) -> int:
        return int(self.extra[self.extra.index(flag) + 1])


# Why each workload exists, and why at these sizes: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-scalar", "analyze", (1,) * 100, ("--cumulants", "8")),
        Workload("analyze-blocks", "analyze", (50,) * 4, ("--cumulants", "8")),
        Workload("simulate", "simulate", (5,) * 4, ("--n", "500000", "--max-order", "4", "--threads", "2")),
        Workload("oracle", "oracle-check", (2,) * 8, ("--max-l", "5")),
    )
}


def rooted_loop_count(n_blocks: int, length: int) -> int:
    """tr[(J - I)^l] for the complete digraph on n_blocks nodes; 0 for l = 1."""
    if length == 1:
        return 0
    return (n_blocks - 1) ** length + (n_blocks - 1) * (-1) ** length


def make_rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def make_covariance(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    s = a @ a.T + 0.5 * d * np.eye(d)
    return (s + s.T) / 2.0


def reference(cov: np.ndarray, block_sizes) -> dict:
    """Multiinformation and sorted coupling spectrum from numpy alone."""
    d = cov.shape[0]
    edges = np.cumsum((0,) + tuple(block_sizes))
    inv_blocks = np.zeros_like(cov)
    logdet_blocks = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sign, logdet = np.linalg.slogdet(cov[a:b, a:b])
        if sign <= 0:
            raise ValueError("generated diagonal block is not positive definite")
        logdet_blocks += logdet
        inv_blocks[a:b, a:b] = np.linalg.inv(cov[a:b, a:b])
    sign, logdet_full = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("generated covariance is not positive definite")
    eig = np.linalg.eigvals(cov @ inv_blocks)
    lam = np.sort(eig.real - 1.0)
    if float(np.max(np.abs(eig.imag))) > 1e-8 * float(np.max(np.abs(eig.real))):
        raise ValueError("coupling spectrum of a generated model is not real")
    cond = float((1.0 + lam[-1]) / (1.0 + lam[0]))
    return {
        "d": d,
        "n_blocks": len(block_sizes),
        "mi": float(0.5 * (logdet_blocks - logdet_full)),
        "lam": lam,
        "rtol": TOL_FACTOR * d * EPS * cond,
        "cond": cond,
    }


def perturbed(ref: dict) -> dict:
    """A reference every correct report must disagree with (self-test)."""
    return dict(ref, mi=ref["mi"] * (1.0 + PERTURBATION), lam=ref["lam"] * (1.0 + PERTURBATION))


def half_width(ref: dict) -> float:
    lam = ref["lam"]
    return float(min(-1.0 / lam[0], 1.0 / lam[-1]))


def cumulant(ref: dict, order: int) -> tuple[float, float]:
    """kappa_l and its magnitude scale l!/2 * sum|lambda|^l (kappa_1 = I)."""
    if order == 1:
        return ref["mi"], abs(ref["mi"])
    lam = ref["lam"]
    scale = math.factorial(order - 1) / 2.0
    return scale * float(np.sum(lam**order)), scale * order * float(np.sum(np.abs(lam) ** order))


def write_model(path: str, cov: np.ndarray, block_sizes) -> None:
    text = json.dumps({"covariance": cov.tolist(), "partition": list(block_sizes)})
    with open(path, "w") as fh:
        fh.write(text)


def make_op(workload: Workload, path: str, ref: dict, rng: np.random.Generator) -> tuple[list[str], dict]:
    """CLI argv for one op and what its report must contain."""
    argv = [workload.command, path, *workload.extra]
    expect: dict = {}
    if workload.command == "analyze":
        h = 0.9 * half_width(ref)
        argv.append(f"--t-grid={-h!r}:{h!r}:100")
        expect["t_grid"] = (-h, h, 100)
    elif workload.command == "simulate":
        seed = int(rng.integers(0, 2**62))
        argv += ["--seed", str(seed)]
        expect["seed"] = seed
    return argv, expect


def _close(value, ref_value: float, scale: float, rtol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref_value) <= rtol * max(1.0, scale)


def verify(workload: Workload, code: int, stdout: str, stderr: str, ref: dict, expect: dict) -> str | None:
    """None when the op's report agrees with the reference, else the first disagreement."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    if not isinstance(report, dict) or "error" in report:
        return "report is an error document"
    try:
        if workload.command == "analyze":
            return _verify_analyze(report, ref, expect)
        if workload.command == "simulate":
            return _verify_simulate(workload, report, ref, expect)
        return _verify_oracle(workload, report, ref)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _verify_analyze(report: dict, ref: dict, expect: dict) -> str | None:
    rtol = ref["rtol"]
    lam = ref["lam"]
    if not report["multiinformation_agreement"]["ok"]:
        return "report's own multiinformation agreement flag is false"
    for key in ("multiinformation", "multiinformation_from_gamma"):
        if not _close(report[key], ref["mi"], abs(ref["mi"]), rtol):
            return f"{key} {report[key]!r} vs reference {ref['mi']!r}"
    eig = np.asarray(report["gamma_eigenvalues"], dtype=float)
    if eig.shape != lam.shape or np.any(np.abs(eig - lam) > rtol * max(1.0, 1.0 + lam[-1])):
        return "gamma_eigenvalues disagree with the reference spectrum"
    kappa = report["cumulants"]
    if len(kappa) != 8:
        return f"{len(kappa)} cumulants reported, 8 requested"
    for order in range(1, 9):
        ref_value, scale = cumulant(ref, order)
        if not _close(kappa[order - 1], ref_value, scale, rtol):
            return f"kappa_{order} {kappa[order - 1]!r} vs reference {ref_value!r}"
    ref_var, scale = cumulant(ref, 2)
    if not _close(report["variance"], ref_var, scale, rtol):
        return f"variance {report['variance']!r} vs reference {ref_var!r}"
    lo, hi, steps = expect["t_grid"]
    t_ref = np.linspace(lo, hi, steps)
    t = np.asarray(report["cgf_grid"]["t"], dtype=float)
    values = report["cgf_grid"]["cgf"]
    if t.shape != t_ref.shape or np.any(np.abs(t - t_ref) > 4 * EPS * hi) or len(values) != steps:
        return "cgf grid points differ from the requested grid"
    for ti, value in zip(t_ref, values):
        logs = np.log1p(-ti * lam)
        ref_value = ti * ref["mi"] - 0.5 * float(np.sum(logs))
        scale = abs(ti * ref["mi"]) + 0.5 * float(np.sum(np.abs(logs)))
        # d ln(1 - t lam) / d lam = -t / (1 - t lam): amplify by the closest pole.
        amplification = float(np.max(1.0 / (1.0 - ti * lam)))
        if not _close(value, ref_value, scale, rtol * amplification):
            return f"cgf({ti!r}) {value!r} vs reference {ref_value!r}"
    return None


def _verify_simulate(workload: Workload, report: dict, ref: dict, expect: dict) -> str | None:
    n = workload.option("--n")
    if report["n"] != n or report["seed"] != expect["seed"] or report["max_order"] != 4:
        return "report's n, seed or max_order differ from the command"
    if not report["ok"]:
        return "report's own Monte Carlo check failed"
    rows = report["rows"]
    if [r["order"] for r in rows] != [1, 2, 3, 4]:
        return "rows are not orders 1..4"
    for row in rows:
        ref_value, scale = cumulant(ref, row["order"])
        if not _close(row["analytic"], ref_value, scale, ref["rtol"]):
            return f"analytic kappa_{row['order']} {row['analytic']!r} vs reference {ref_value!r}"
        if not row["ok"] or not abs(row["z"]) <= report["z_threshold"]:
            return f"order {row['order']} z-score {row['z']!r} beyond the threshold"
    return None


def _verify_oracle(workload: Workload, report: dict, ref: dict) -> str | None:
    max_l = workload.option("--max-l")
    if not report["ok"]:
        return "report's own oracle check failed"
    rows = report["rows"]
    if [r["l"] for r in rows] != list(range(1, max_l + 1)):
        return "rows are not lengths 1..max_l"
    lam = ref["lam"]
    for row in rows:
        l = row["l"]
        if row["loop_count"] != rooted_loop_count(ref["n_blocks"], l):
            return f"loop_count {row['loop_count']} at l={l} differs from the closed form"
        ref_trace = float(np.sum(lam**l))
        scale = l * float(np.sum(np.abs(lam) ** l))
        for key in ("loop_sum", "matrix_trace"):
            if not _close(row[key], ref_trace, scale, ref["rtol"]):
                return f"{key} {row[key]!r} at l={l} vs reference trace {ref_trace!r}"
        if not row["ok"]:
            return f"row l={l} failed its own check"
    return None


def total_loop_count(workload: Workload) -> int:
    max_l = workload.option("--max-l")
    return sum(rooted_loop_count(len(workload.block_sizes), l) for l in range(1, max_l + 1))
