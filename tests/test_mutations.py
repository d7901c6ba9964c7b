"""Plausible defects in one analytic route, each of which the report must catch.

Each case monkeypatches one route of the package, loads a seeded 2+3+4 model
through the CLI, and runs ``analyze`` with every check switched on. A defect
that no record catches yet is a known gap: a strict xfail with its reason, so
that the test fails once the gap closes and the list is brought up to date.
"""

import json

import numpy as np
import pytest

from conftest import random_model

from infodensity import cli, model

SIZES = [2, 3, 4]
EVERY_CHECK = ["--oracle-max-l", "6", "--mc-n", "200000"]


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    covariance = random_model(np.random.default_rng(31), sum(SIZES), SIZES).covariance
    path.write_text(json.dumps({"covariance": covariance.tolist(), "partition": SIZES}))
    return str(path)


def mutate_gamma(monkeypatch, change):
    """Make ``validate_model`` keep change(G), with the spectrum it computed from the true W."""
    original = model.compute_gamma

    def mutated(covariance, block_factor, partition):
        gamma, eigenvalues = original(covariance, block_factor, partition)
        return change(gamma), eigenvalues

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
    expected = ["variance_agreement", "oracle", *(f"oracle l={l}" for l in range(2, 7))]
    assert analyze(capsys, model_file) == (1, expected)


def test_transposed_gamma_fails_monte_carlo(capsys, model_file, monkeypatch):
    mutate_gamma(monkeypatch, np.transpose)
    # tr((G^T)^l) = tr(G^l), so no loop row can see this defect, and half the sum of G * G^T
    # does not change under transposition, so neither can the variance record: only the
    # sampler's kernel reads it.
    assert analyze(capsys, model_file) == (1, ["monte_carlo"])


def test_variance_of_squares_fails(capsys, model_file, monkeypatch):
    monkeypatch.setattr(cli, "variance", lambda m: 0.5 * float(np.sum(m.gamma**2)))
    assert analyze(capsys, model_file) == (1, ["variance_agreement"])
