"""Plausible defects in one analytic route, each of which the report must catch.

Each case monkeypatches one route of the package, loads a seeded 2+3+4 model
through the CLI, and runs ``analyze`` with every check switched on. A defect
that no record catches yet is a known gap: a strict xfail with its reason, so
that the test fails once the gap closes and the list is brought up to date.
"""

import json

import numpy as np
import pytest

from conftest import density_at, density_at_direct, random_model

from infodensity import CgfDomain, CumulantSequence, cli, model, sampling, validate_model
from infodensity._linalg import _inverse_lower

SIZES = [2, 3, 4]
EVERY_CHECK = ["--t-grid=-0.5:0.5:5", "--oracle-max-l", "6", "--mc-n", "200000"]
ORACLE_ROWS = [f"oracle l={l}" for l in range(2, 7)]


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    covariance = random_model(np.random.default_rng(31), sum(SIZES), SIZES).covariance
    path.write_text(json.dumps({"covariance": covariance.tolist(), "partition": SIZES}))
    return str(path)


def mutate_gamma(monkeypatch, change, change_spectrum=lambda eigenvalues: eigenvalues):
    """Make ``validate_model`` keep change(G) and change_spectrum of the spectrum computed from the true W."""
    original = model.compute_gamma

    def mutated(covariance, partition):
        gamma, eigenvalues, block_diagonal = original(covariance, partition)
        return change(gamma), change_spectrum(eigenvalues), block_diagonal

    monkeypatch.setattr(model, "compute_gamma", mutated)


def analyze(capsys, model_file):
    """The exit code and the names of the failed check records: a section's key, or ``oracle l=<l>``."""
    code = cli.main(["analyze", model_file, *EVERY_CHECK])
    report = json.loads(capsys.readouterr().out)
    failed = [key for key, value in report.items() if isinstance(value, dict) and value.get("ok") is False]
    failed += [f"oracle l={row['l']}" for row in report["oracle"]["rows"] if not row["ok"]]
    return code, failed


def test_clean_model_passes(capsys, model_file):
    assert analyze(capsys, model_file) == (0, [])


def test_scaled_block_column_fails_oracle(capsys, model_file, monkeypatch):
    def scale_block_one(gamma):
        gamma = gamma.copy()
        gamma[:, 2:5] *= 1 + 1e-3
        return gamma

    mutate_gamma(monkeypatch, scale_block_one)
    # Every row with loops fails; at l = 1 there are none, and G's diagonal blocks stay zero.
    # The variance, half the sum of G * G^T, reads the scaled block too; kappa_2 reads the spectrum.
    expected = ["variance_agreement", "oracle", *ORACLE_ROWS]
    assert analyze(capsys, model_file) == (1, expected)


def test_transposed_gamma_fails_monte_carlo(capsys, model_file, monkeypatch):
    mutate_gamma(monkeypatch, np.transpose)
    # tr((G^T)^l) = tr(G^l), so no loop row can see this defect, and half the sum of G * G^T
    # does not change under transposition, so neither can the variance record: only the
    # sampler's kernel reads it.
    assert analyze(capsys, model_file) == (1, ["monte_carlo"])


def test_transposed_gamma_fails_direct_density(monkeypatch):
    # No report has a density record yet (ROADMAP item 2); this pins the detection that
    # record will rely on. The clean pair is held to 1e-9, as in test_measures' TestDensity.
    covariance = random_model(np.random.default_rng(31), sum(SIZES), SIZES).covariance
    points = np.random.default_rng(32).standard_normal((5, sum(SIZES)))

    def gaps():
        m = validate_model(None, covariance, SIZES)
        return [abs(density_at(m, x) - density_at_direct(m, x)) for x in points]

    assert max(gaps()) <= 1e-9
    mutate_gamma(monkeypatch, lambda gamma: gamma.T.copy())
    assert min(gaps()) > 1e-9


def test_variance_of_squares_fails(capsys, model_file, monkeypatch):
    monkeypatch.setattr(cli, "variance", lambda m: 0.5 * float(np.sum(m.gamma**2)))
    assert analyze(capsys, model_file) == (1, ["variance_agreement"])


def test_scaled_spectrum_fails_every_spectrum_record(capsys, model_file, monkeypatch):
    mutate_gamma(monkeypatch, lambda gamma: gamma, lambda eigenvalues: eigenvalues * (1 + 1e-6))
    # The MI from the spectrum, kappa_2 and every row's sum of lambda^l read the spectrum; G does not.
    expected = ["multiinformation_agreement", "variance_agreement", "oracle", *ORACLE_ROWS]
    assert analyze(capsys, model_file) == (1, expected)


def test_diagonal_block_factor_fails(capsys, model_file, monkeypatch):
    original = model._inverse_lower

    def diagonal_second_block(stack):
        # Block 1 is the only block of size 3, so its factor is the first of that size's stack.
        if stack.shape[-1] == 3:
            stack = stack.copy()
            stack[0] = np.diag(np.diag(stack[0]))
        return original(stack)

    monkeypatch.setattr(model, "_inverse_lower", diagonal_second_block)
    # G and its spectrum agree with each other, but not with the log-determinants of the
    # true factors, which give the MI and the sampler's center.
    assert analyze(capsys, model_file) == (1, ["multiinformation_agreement", "monte_carlo"])


def test_shifted_cumulant_orders_fail(capsys, model_file, monkeypatch):
    original = cli.cumulants

    def shifted(m, order):
        values = original(m, order + 1).values
        return CumulantSequence(values[:1] + values[2:])

    # Both readers of the analytic cumulants: the report and the Monte Carlo section.
    monkeypatch.setattr(cli, "cumulants", shifted)
    monkeypatch.setattr(sampling, "cumulants", shifted)
    assert analyze(capsys, model_file) == (1, ["variance_agreement", "monte_carlo"])


def test_transposed_sampler_kernel_fails_monte_carlo(capsys, model_file, monkeypatch):
    def transposed(m):
        return _inverse_lower(m.factor) @ m.gamma.T @ m.factor

    monkeypatch.setattr(sampling, "_folded_kernel", transposed)
    assert analyze(capsys, model_file) == (1, ["monte_carlo"])


GAP = "nothing checks the CGF grid or cgf_domain yet (ROADMAP item 2)"


@pytest.mark.xfail(strict=True, reason=GAP)
def test_negated_cgf_argument_fails(capsys, model_file, monkeypatch):
    original = cli.cgf
    monkeypatch.setattr(cli, "cgf", lambda m, t: original(m, -t))
    assert analyze(capsys, model_file)[0] == 1


@pytest.mark.xfail(strict=True, reason=GAP)
def test_mirrored_cgf_domain_fails(capsys, model_file, monkeypatch):
    original = cli.cgf_domain

    def mirrored(m):
        domain = original(m)
        return CgfDomain(-domain.upper, -domain.lower)

    monkeypatch.setattr(cli, "cgf_domain", mirrored)
    assert analyze(capsys, model_file)[0] == 1
