import csv
import io
import json

import numpy as np
import pytest

from infodensity import DEFAULT_LOOP_CAP
from infodensity.cli import main


@pytest.fixture
def scalar_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1]}))
    return str(path)


@pytest.fixture
def equicorrelation_file(tmp_path):
    cov = (np.full((3, 3), 0.5) + 0.5 * np.eye(3)).tolist()
    path = tmp_path / "equi.json"
    path.write_text(json.dumps({"covariance": cov, "partition": [1, 1, 1]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_scalar_pair_report(self, capsys, scalar_pair_file):
        code, out, _ = run(capsys, ["analyze", scalar_pair_file, "--cumulants", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["cumulants"] == pytest.approx([0.143841, 0.25, 0.0, 0.375], abs=1e-6)
        assert report["multiinformation_agreement"]["ok"]
        assert report["variance"] == pytest.approx(0.25)
        assert report["cgf_domain"] == pytest.approx({"lower": -2.0, "upper": 2.0})

    def test_identity_model_all_zero(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"covariance": np.eye(3).tolist(), "partition": [1, 2]}))
        code, out, _ = run(capsys, ["analyze", str(path)])
        report = json.loads(out)
        assert code == 0
        assert report["multiinformation"] == 0.0
        assert report["variance"] == 0.0
        assert report["cumulants"] == [0.0] * 4
        assert report["cgf_domain"] == {"lower": None, "upper": None}

    def test_bad_partition_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"covariance": np.eye(3).tolist(), "partition": [2, 2]}))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "BadPartition"

    def test_non_integral_partition_exit_2(self, capsys, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"covariance": np.eye(3).tolist(), "partition": [1.5, 1.5, 1]}))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "BadPartition"

    def test_not_positive_definite_exit_2(self, capsys, tmp_path):
        path = tmp_path / "npd.json"
        path.write_text(json.dumps({"covariance": [[1, 1.5], [1.5, 1]], "partition": [1, 1]}))
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "NotPositiveDefinite"
        assert doc["pivot_index"] == 1

    def test_non_finite_covariance_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"covariance": [[1, NaN], [NaN, 1]], "partition": [1, 1]}')
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NonFiniteInput"

    def test_grid_outside_domain_exit_3(self, capsys, scalar_pair_file):
        code, _, err = run(capsys, ["analyze", scalar_pair_file, "--t-grid=0:3:4"])
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "OutOfDomain"
        assert doc["domain"] == {"lower": -2.0, "upper": 2.0}

    @pytest.mark.parametrize("grid", ["nan:1:3", "-1:inf:3", "-inf:nan:2"])
    def test_non_finite_grid_bound_exit_2(self, capsys, scalar_pair_file, grid):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, f"--t-grid={grid}"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NonFiniteInput"

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_grid_steps_below_one_exit_2(self, capsys, scalar_pair_file, steps):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, f"--t-grid=-0.1:0.1:{steps}"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("max_l", ["0", "-2"])
    def test_oracle_max_l_below_one_exit_2(self, capsys, scalar_pair_file, max_l):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, "--oracle-max-l", max_l])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("mc_n", ["0", "-5", "3"])
    def test_mc_n_below_four_exit_2(self, capsys, scalar_pair_file, mc_n):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, "--mc-n", mc_n])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "BatchTooSmall"

    def test_grid_values_reported(self, capsys, scalar_pair_file):
        code, out, _ = run(capsys, ["analyze", scalar_pair_file, "--t-grid=-1:1:3"])
        report = json.loads(out)
        assert code == 0
        assert report["cgf_grid"]["t"] == [-1.0, 0.0, 1.0]
        assert report["cgf_grid"]["cgf"][1] == 0.0
        assert report["cgf_grid"]["cgf"][2] == pytest.approx(0.287682, abs=1e-6)

    def test_optional_sections_present_iff_requested(self, capsys, equicorrelation_file):
        code, out, _ = run(capsys, ["analyze", equicorrelation_file])
        report = json.loads(out)
        assert "oracle" not in report and "monte_carlo" not in report and "cgf_grid" not in report
        code, out, _ = run(
            capsys,
            ["analyze", equicorrelation_file, "--oracle-max-l", "3", "--mc-n", "20000", "--mc-seed", "5"],
        )
        report = json.loads(out)
        assert code == 0
        assert report["oracle"]["ok"] and report["monte_carlo"]["ok"]

    def test_exact_serialization(self, capsys, scalar_pair_file):
        code, out, _ = run(capsys, ["analyze", scalar_pair_file, "--exact"])
        report = json.loads(out)
        assert report["variance"] == "0.25"
        assert float(report["multiinformation"]) == pytest.approx(0.14384103622589053)

    def test_matrix_csv_input(self, capsys, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("1.0,0.5\n0.5,1.0\n")
        code, out, _ = run(capsys, ["analyze", "--matrix-csv", str(path), "--partition", "1,1"])
        assert code == 0
        assert json.loads(out)["variance"] == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "doc, error",
        [
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": 5}, "BadPartition"),
            ({"covariance": {"a": 1}, "partition": [1, 1]}, "ValueError"),
            (5, "ValueError"),
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1], "mean": {"x": 1}}, "ValueError"),
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, True]}, "BadPartition"),
        ],
        ids=["partition-int", "covariance-object", "top-level-int", "mean-object", "partition-bool"],
    )
    def test_wrong_json_types_exit_2(self, capsys, tmp_path, doc, error):
        path = tmp_path / "types.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("missing", ["covariance", "partition"])
    def test_missing_key_exit_2(self, capsys, tmp_path, missing):
        doc = {"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1]}
        del doc[missing]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "model file needs 'covariance' and 'partition' keys",
        }

    def test_fingerprint_stable_across_runs(self, capsys, scalar_pair_file):
        _, out1, _ = run(capsys, ["analyze", scalar_pair_file])
        _, out2, _ = run(capsys, ["analyze", scalar_pair_file])
        assert json.loads(out1)["fingerprint"] == json.loads(out2)["fingerprint"]


class TestSimulate:
    def test_passing_run(self, capsys, scalar_pair_file):
        code, out, _ = run(
            capsys, ["simulate", scalar_pair_file, "--n", "200000", "--seed", "42"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and len(report["rows"]) == 4

    def test_corrupted_order_fails(self, capsys, scalar_pair_file):
        code, out, _ = run(
            capsys,
            ["simulate", scalar_pair_file, "--n", "50000", "--seed", "42", "--corrupt-order", "2"],
        )
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_tiny_sample_exit_2(self, capsys, scalar_pair_file):
        code, _, err = run(capsys, ["simulate", scalar_pair_file, "--n", "1"])
        assert code == 2
        assert json.loads(err)["error"] == "BatchTooSmall"

    def test_zero_threads_exit_2(self, capsys, scalar_pair_file):
        code, out, err = run(capsys, ["simulate", scalar_pair_file, "--n", "1000", "--threads", "0"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"


class TestOracleCheck:
    def test_equicorrelation_rows(self, capsys, equicorrelation_file):
        code, out, _ = run(capsys, ["oracle-check", equicorrelation_file, "--max-l", "4"])
        assert code == 0
        report = json.loads(out)
        third = report["rows"][2]
        assert third["l"] == 3
        assert third["loop_sum"] == pytest.approx(0.75, abs=1e-12)
        assert third["matrix_trace"] == pytest.approx(0.75, abs=1e-12)

    def test_two_block_odd_rows_exactly_zero(self, capsys, scalar_pair_file):
        code, out, _ = run(capsys, ["oracle-check", scalar_pair_file, "--max-l", "5"])
        assert code == 0
        rows = json.loads(out)["rows"]
        for row in rows:
            if row["l"] % 2 == 1:
                assert row["loop_sum"] == 0.0 and row["matrix_trace"] == 0.0

    @pytest.mark.parametrize("max_l", ["0", "-1"])
    def test_max_l_below_one_exit_2(self, capsys, scalar_pair_file, max_l):
        code, out, err = run(capsys, ["oracle-check", scalar_pair_file, "--max-l", max_l])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_cap_exceeded_exit_3(self, capsys, tmp_path):
        # 218 scalar blocks: 217**3 - 217 = 10,218,096 loops at l = 3, over the default cap.
        cov = (np.full((218, 218), 0.001) + 0.999 * np.eye(218)).tolist()
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"covariance": cov, "partition": [1] * 218}))
        code, out, err = run(capsys, ["oracle-check", str(path), "--max-l", "3"])
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "CombinatorialLimit"
        assert doc["count"] == 10_218_096
        assert doc["cap"] == 10_000_000 == DEFAULT_LOOP_CAP

    def test_loop_cap_ignores_environment(self, capsys, equicorrelation_file, monkeypatch):
        monkeypatch.setenv("INFODENSITY_LOOP_CAP", "10")  # 18 loops at l = 4 would exceed it
        code, out, _ = run(capsys, ["oracle-check", equicorrelation_file, "--max-l", "5"])
        assert code == 0
        assert json.loads(out)["loop_cap"] == DEFAULT_LOOP_CAP


class TestHomogeneous:
    def test_basic_table(self, capsys):
        code, out, _ = run(capsys, ["homogeneous", "--d", "3", "--rho", "0.5", "--max-l", "3"])
        assert code == 0
        rows = json.loads(out)["rows"]
        by_l = {row["l"]: row for row in rows}
        assert by_l[2]["closed_form"] == pytest.approx(0.75)
        assert by_l[3]["closed_form"] == pytest.approx(0.75)
        assert by_l[2]["general"] == pytest.approx(0.75, abs=1e-9)
        assert by_l[1]["closed_form"] == pytest.approx(0.346574, abs=1e-6)

    def test_sweep_approaches_limit(self, capsys):
        code, out, _ = run(
            capsys,
            ["homogeneous", "--d", "10", "--rho", "0.3", "--max-l", "3", "--sweep-d", "100,10,1000,100"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["sweep_d"] == [100, 1000]
        assert [r["d"] for r in report["rows"]] == [10] * 3 + [100] * 3 + [1000] * 3
        rows = [r for r in report["rows"] if r["l"] == 3]
        gaps = [abs(r["standardized"] - 2.828427) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01 * 2.828427

    def test_invalid_rho_exit_2(self, capsys):
        code, _, err = run(capsys, ["homogeneous", "--d", "3", "--rho", "-0.5"])
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"

    def test_csv_and_json_carry_identical_values(self, capsys):
        args = ["homogeneous", "--d", "5", "--rho", "0.4", "--max-l", "4"]
        _, json_out, _ = run(capsys, args)
        _, csv_out, _ = run(capsys, args + ["--format", "csv"])
        json_rows = json.loads(json_out)["rows"]
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(json_rows) == len(csv_rows)
        for jrow, crow in zip(json_rows, csv_rows):
            for key, value in jrow.items():
                if value is None:
                    assert crow[key] == ""
                elif isinstance(value, float):
                    assert float(crow[key]) == value
                else:
                    assert type(value)(crow[key]) == value
