import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import orjson
import pytest

from conftest import count_loop_trace, random_model

import infodensity
from infodensity import DEFAULT_LOOP_CAP, cli, model_fingerprint, sampling, validate_model
from infodensity.cli import (
    AGREEMENT_TOL,
    MAX_ARRAY_ENTRIES,
    ORACLE_TOL,
    _build_parser,
    _exit_code,
    _parse_t_grid,
    main,
)
from infodensity.loops import _loop_counts
from infodensity.measures import MAX_CUMULANT_ORDER
from infodensity.sampling import Z_THRESHOLD

FLOAT_EXTREMES = [
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    np.finfo(float).max,
    -np.finfo(float).max,
    -0.0,
    0.0,
]


def random_finite_doubles(rng, n):
    """Doubles from uniformly random bit patterns, every exponent alike, non-finite ones dropped."""
    values = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


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

    def test_variance_record_without_kappa_2_reported(self, capsys, equicorrelation_file):
        # The record takes kappa_2 itself, so it stands when only kappa_1 is asked for.
        code, out, _ = run(capsys, ["analyze", equicorrelation_file, "--cumulants", "1"])
        report = json.loads(out)
        assert code == 0 and len(report["cumulants"]) == 1
        assert report["variance_agreement"]["ok"] and report["variance_agreement"]["margin"] < 1e-5

    def test_kappa_1_and_kappa_2_from_the_one_cumulants_call(self, capsys, monkeypatch, tmp_path):
        # The reported multiinformation is kappa_1 and the variance record reads kappa_2, both
        # from the call that gives the printed cumulants, so they agree bit for bit.
        sizes = [2, 3, 4]
        path = tmp_path / "model.json"
        covariance = random_model(np.random.default_rng(11), sum(sizes), sizes).covariance
        path.write_text(json.dumps({"covariance": covariance.tolist(), "partition": sizes}))
        orders = []
        original = cli.cumulants
        monkeypatch.setattr(cli, "cumulants", lambda model, order: orders.append(order) or original(model, order))
        code, out, _ = run(capsys, ["analyze", str(path), "--cumulants", "8"])
        report = json.loads(out)
        assert code == 0 and orders == [8]
        assert report["multiinformation"] == report["cumulants"][0]
        assert report["variance_agreement"]["abs_diff"] == abs(report["variance"] - report["cumulants"][1])

    def test_identity_model_all_zero(self, capsys, tmp_path):
        # Independent blocks down to the smallest subnormal: a variance of 5e-324 is kept, not halved to 0.
        path = tmp_path / "id.json"
        for covariance, sizes in ((np.eye(3), [1, 2]), (np.diag([1.0, 5e-324]), [1, 1])):
            path.write_text(json.dumps({"covariance": covariance.tolist(), "partition": sizes}))
            code, out, err = run(capsys, ["analyze", str(path)])
            report = json.loads(out)
            assert (code, err) == (0, "")
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

    @pytest.mark.parametrize("grid", ["1:2", "a:b:3"])
    def test_malformed_grid_exit_2(self, capsys, scalar_pair_file, grid):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, f"--t-grid={grid}"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError", "message": f"--t-grid expects 'a:b:steps', got {grid!r}"}

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_grid_steps_below_one_exit_2(self, capsys, scalar_pair_file, steps):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, f"--t-grid=-0.1:0.1:{steps}"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("steps", [MAX_ARRAY_ENTRIES // 2 + 1, 10**15])
    def test_grid_above_cap_exit_3_before_allocating(self, capsys, monkeypatch, scalar_pair_file, steps):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run(capsys, ["analyze", scalar_pair_file, f"--t-grid=-0.1:0.1:{steps}"])
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "MemoryError"
        assert f"cap of {MAX_ARRAY_ENTRIES}" in doc["message"]

    def test_grid_at_cap_accepted(self):
        d = 1000
        assert _parse_t_grid(f"-0.1:0.1:{MAX_ARRAY_ENTRIES // d}", d).size == MAX_ARRAY_ENTRIES // d
        with pytest.raises(MemoryError):
            _parse_t_grid(f"-0.1:0.1:{MAX_ARRAY_ENTRIES // d + 1}", d)

    @pytest.mark.parametrize("grid", ["-1:1:9", "0.1:0.3:7", "5e-324:1e-320:4", "-3e-320:7e-321:5", "2:2:1"])
    def test_grid_is_numpy_linspace_where_the_span_is_finite(self, grid):
        a, b, steps = grid.split(":")
        expected = np.linspace(float(a), float(b), int(steps))
        assert _parse_t_grid(grid, 2).tobytes() == expected.tobytes()

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

    def test_too_few_draws_refused_before_any_loop(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "eight.json"
        model = random_model(np.random.default_rng(1620), d=16, sizes=[2] * 8)
        path.write_text(json.dumps({"covariance": model.covariance.tolist(), "partition": [2] * 8}))
        calls = count_loop_trace(monkeypatch)
        code, out, err = run(capsys, ["analyze", str(path), "--oracle-max-l", "6", "--mc-n", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "BatchTooSmall",
            "message": "need at least 4 draws, got 3",
        }
        assert calls[0] == 0

    def test_grid_values_reported(self, capsys, scalar_pair_file):
        code, out, _ = run(capsys, ["analyze", scalar_pair_file, "--t-grid=-1:1:3"])
        report = json.loads(out)
        assert code == 0
        assert report["cgf_grid"]["t"] == [-1.0, 0.0, 1.0]
        assert report["cgf_grid"]["cgf"][1] == 0.0
        assert report["cgf_grid"]["cgf"][2] == pytest.approx(0.287682, abs=1e-6)

    # b - a overflows here; the grid must still run from a to b, with no RuntimeWarning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_spanning_the_double_range(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"covariance": np.eye(2).tolist(), "partition": [1, 1]}))
        code, out, err = run(capsys, ["analyze", str(path), "--t-grid=-1e308:1e308:3"])
        assert (code, err) == (0, "")
        assert json.loads(out)["cgf_grid"] == {"t": [-1e308, 0.0, 1e308], "cgf": [0.0, 0.0, 0.0]}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_spanning_the_double_range_outside_domain(self, capsys, scalar_pair_file):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, "--t-grid=-1e308:1e308:3"])
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["error"] == "OutOfDomain" and doc["t"] == -1e308

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
        # 20000 draws are one chunk, so one sampler thread ran; the count is the section's last key.
        assert list(report["monte_carlo"].items())[-1] == ("threads", 1)

    def test_no_model_exit_2(self, capsys):
        code, out, err = run(capsys, ["analyze"])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ArgumentError",
            "message": "the following arguments are required: model",
        }

    def test_oracle_section_is_the_oracle_check_document(self, capsys, equicorrelation_file):
        code, out, _ = run(capsys, ["analyze", equicorrelation_file, "--oracle-max-l", "4", "--mc-n", "20000"])
        assert code == 0
        report = json.loads(out)
        code, out, _ = run(capsys, ["oracle-check", equicorrelation_file, "--max-l", "4"])
        assert code == 0
        document = json.loads(out)
        assert document.pop("fingerprint") == report["fingerprint"]
        assert report["oracle"] == document
        assert list(document)[:3] == ["max_l", "loop_cap", "tolerance"]
        assert (document["loop_cap"], document["tolerance"]) == (DEFAULT_LOOP_CAP, ORACLE_TOL)
        assert [row["order"] for row in report["monte_carlo"]["rows"]] == [1, 2, 3, 4]

    def test_monte_carlo_section_is_the_simulate_document(self, capsys, equicorrelation_file):
        code, out, _ = run(capsys, ["analyze", equicorrelation_file, "--mc-n", "20000", "--mc-seed", "5"])
        assert code == 0
        report = json.loads(out)
        code, out, _ = run(capsys, ["simulate", equicorrelation_file, "--n", "20000", "--seed", "5"])
        assert code == 0
        document = json.loads(out)
        # The fingerprint opens the document, once: the section has none of its own.
        assert list(document)[0] == "fingerprint"
        assert document.pop("fingerprint") == report["fingerprint"]
        assert report["monte_carlo"] == document

    def test_missing_model_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, ["analyze", str(tmp_path / "absent.json")])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize(
        "doc, error",
        [
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": 5}, "BadPartition"),
            ({"covariance": {"a": 1}, "partition": [1, 1]}, "ValueError"),
            (5, "ValueError"),
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1], "mean": {"x": 1}}, "ValueError"),
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, True]}, "BadPartition"),
            # orjson reads an integer beyond 64 bits as a float
            ({"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 2**64 + 1]}, "BadPartition"),
        ],
        ids=["partition-int", "covariance-object", "top-level-int", "mean-object", "partition-bool", "partition-bigint"],
    )
    def test_wrong_json_types_exit_2(self, capsys, tmp_path, doc, error):
        path = tmp_path / "types.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--n", "1000"]], ids=["analyze", "simulate"])
    @pytest.mark.parametrize(
        "key, doc",
        [
            ("covariance", {"covariance": [[10**400, 0], [0, 1]], "partition": [1, 1]}),
            ("mean", {"covariance": [[1, 0], [0, 1]], "partition": [1, 1], "mean": [10**400, 0]}),
        ],
        ids=["covariance", "mean"],
    )
    def test_integer_beyond_the_double_range_exit_2(self, capsys, tmp_path, key, doc, command):
        # orjson refuses the literal, and the standard library reads it as an int no double can hold.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [command[0], str(path), *command[1:]])
        assert (code, out) == (2, "")
        assert err.endswith("\n") and "\n" not in err[:-1]
        assert strict_loads(err) == {
            "error": "ValueError",
            "message": f"{key} must be an array of numbers: int too large to convert to float",
        }

    def test_entries_read_by_numpy_float_conversion(self, capsys, tmp_path, scalar_pair_file):
        # A numeric string and a boolean read as numbers; a string that is no number exits 2.
        assert validate_model(None, [["1", 0.5], [0.5, 1]], [1, 1]).covariance.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        _, expected, _ = run(capsys, ["analyze", scalar_pair_file])
        path = tmp_path / "entries.json"
        path.write_text('{"covariance": [[true, 0.5], [0.5, true]], "partition": [1, 1]}')
        assert run(capsys, ["analyze", str(path)]) == (0, expected, "")
        path.write_text('{"covariance": [["x", 0.5], [0.5, 1]], "partition": [1, 1]}')
        code, out, err = run(capsys, ["analyze", str(path)])
        assert (code, out) == (2, "")
        assert strict_loads(err) == {
            "error": "ValueError",
            "message": "covariance must be an array of numbers: could not convert string to float: 'x'",
        }

    def test_non_vector_mean_exit_2(self, capsys, tmp_path):
        path = tmp_path / "mean.json"
        path.write_text(json.dumps({"mean": [[1, 2], [3, 4]], "covariance": np.eye(4).tolist(), "partition": [2, 2]}))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert (code, out) == (2, "")
        assert err.endswith("\n") and "\n" not in err[:-1]
        assert strict_loads(err) == {
            "error": "DimensionMismatch",
            "message": "mean has shape (2, 2), covariance is 4x4",
        }

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

    def test_fingerprint_matches_standard_library_parse(self, capsys, tmp_path):
        rng = np.random.default_rng(17)
        d = 40
        mean = np.concatenate([FLOAT_EXTREMES, random_finite_doubles(rng, 2 * d)])[:d]
        # Off-diagonal entries down to the subnormal range, one of them -0.0.
        off = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-322, 0, size=(d, d))
        cov = np.tril(off, -1) + np.tril(off, -1).T + d * np.eye(d)
        cov[0, 1] = cov[1, 0] = -0.0
        text = json.dumps({"covariance": cov.tolist(), "partition": [10] * 4, "mean": mean.tolist()})
        path = tmp_path / "doubles.json"
        path.write_text(text)
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        doc = json.loads(text)
        expected = model_fingerprint(validate_model(doc["mean"], doc["covariance"], doc["partition"]))
        assert json.loads(out)["fingerprint"] == expected

    def test_orjson_reads_doubles_as_the_standard_library_does(self):
        values = np.concatenate([FLOAT_EXTREMES, random_finite_doubles(np.random.default_rng(18), 100_000)])
        text = json.dumps(values.tolist())
        fast = np.array(orjson.loads(text), dtype=np.float64)
        assert np.array_equal(fast.view(np.uint64), np.array(json.loads(text)).view(np.uint64))

    @pytest.mark.parametrize(
        "data, doc",
        [
            (
                b'{"covariance": [[1, 0.5], [0.5, 1]], "partition": [1,',
                {"error": "JSONDecodeError", "message": "Expecting value: line 1 column 54 (char 53)"},
            ),
            (
                b'{"covariance": [[1, 0.5],\r\n [0.5, 1]],\r\n "partition": [1,',
                {"error": "JSONDecodeError", "message": "Expecting value: line 3 column 18 (char 55)"},
            ),
            (
                b'{"covariance": [[1, Infinity], [Infinity, 1]], "partition": [1, 1]}',
                {"error": "NonFiniteInput", "message": "covariance has 2 non-finite entries (NaN or inf)"},
            ),
            (
                b'{"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1], "mean": [-Infinity, 0]}',
                {"error": "NonFiniteInput", "message": "mean has 1 non-finite entries (NaN or inf)"},
            ),
            (
                b'{"covariance": [[1e400, 0.5], [0.5, 1]], "partition": [1, 1]}',
                {"error": "NonFiniteInput", "message": "covariance has 1 non-finite entries (NaN or inf)"},
            ),
            (
                b"[[1, 0.5], [0.5, 1]]",
                {"error": "ValueError", "message": "model file must hold a JSON object, got list"},
            ),
            (
                b'\xef\xbb\xbf{"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1]}',
                {
                    "error": "JSONDecodeError",
                    "message": "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
                },
            ),
            (
                b'{"covariance": [[1, 0.5], [0.5, 1]], "partition": [1, 1], "n": "\xff"}',
                {
                    "error": "UnicodeDecodeError",
                    "message": "'utf-8' codec can't decode byte 0xff in position 64: invalid start byte",
                },
            ),
            (b"", {"error": "JSONDecodeError", "message": "Expecting value: line 1 column 1 (char 0)"}),
        ],
        ids=["truncated", "truncated-crlf", "infinity", "minus-infinity-mean", "beyond-double-range",
             "top-level-array", "utf8-bom", "invalid-utf8", "empty"],
    )
    def test_rejected_by_orjson_keeps_standard_library_error(self, capsys, tmp_path, data, doc):
        path = tmp_path / "rejected.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err) == doc

    def test_cumulant_order_over_cap_exit_3(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"covariance": np.eye(3).tolist(), "partition": [1, 2]}))
        code, out, err = run(capsys, ["analyze", str(path), "--cumulants", str(MAX_CUMULANT_ORDER + 1)])
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "CumulantOverflow"
        assert doc["order"] == MAX_CUMULANT_ORDER + 1

    def test_peak_memory_at_4x50(self, capsys, tmp_path):
        # One op of the benchmark's shape. The file's bytes and the decoded lists (4 d^2 doubles)
        # are dropped before validation, and the op then peaks near 6.5 d^2 doubles (7.0 at 100 x 1).
        sizes = [50] * 4
        d = sum(sizes)
        path = tmp_path / "model.json"
        covariance = random_model(np.random.default_rng(50), d, sizes).covariance
        path.write_text(json.dumps({"covariance": covariance.tolist(), "partition": sizes}))
        argv = ["analyze", str(path), "--cumulants", "8", "--t-grid=-0.1:0.1:100"]
        assert run(capsys, argv)[0] == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 10 * d * d * 8


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

    @pytest.mark.parametrize(
        "extra",
        [["--corrupt-order", "0"], ["--corrupt-order", "-1"], ["--corrupt-order", "9"],
         ["--corrupt-order", "4", "--max-order", "2"]],
    )
    def test_corrupt_order_outside_checked_orders_exit_2(self, capsys, scalar_pair_file, extra):
        code, out, err = run(capsys, ["simulate", scalar_pair_file, "--n", "100", *extra])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert "corrupt_order" in doc["message"]

    @pytest.mark.parametrize("max_order", ["0", "5"])
    def test_max_order_outside_one_to_four_exit_2(self, capsys, scalar_pair_file, max_order):
        code, out, err = run(capsys, ["simulate", scalar_pair_file, "--n", "100", "--max-order", max_order])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError", "message": f"max_order must be in 1..4, got {max_order}"}

    def test_tiny_sample_exit_2(self, capsys, scalar_pair_file):
        code, _, err = run(capsys, ["simulate", scalar_pair_file, "--n", "1"])
        assert code == 2
        assert json.loads(err)["error"] == "BatchTooSmall"

    def test_report_independent_of_threads(self, capsys, monkeypatch, scalar_pair_file):
        # 200,000 draws are four chunks: three threads split them unevenly.
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        reports = []
        for threads in ("1", "2", "3", "100000"):
            code, out, _ = run(capsys, ["simulate", scalar_pair_file, "--n", "200000", "--threads", threads])
            assert code == 0
            reports.append(json.loads(out))
        # The effective count: at most one thread per CPU and per chunk.
        assert [r.pop("threads") for r in reports] == [1, 2, 3, 3]
        assert reports[0] == reports[1] == reports[2] == reports[3]
        code, out, _ = run(capsys, ["simulate", scalar_pair_file, "--n", "1000", "--threads", "2"])
        assert json.loads(out)["threads"] == 1

    def test_zero_threads_exit_2(self, capsys, scalar_pair_file):
        code, out, err = run(capsys, ["simulate", scalar_pair_file, "--n", "1000", "--threads", "0"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"


@pytest.fixture
def wide_file(tmp_path):
    """218 scalar blocks: 217**3 - 217 = 10,218,096 loops at l = 3, over the default cap."""
    cov = (np.full((218, 218), 0.001) + 0.999 * np.eye(218)).tolist()
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"covariance": cov, "partition": [1] * 218}))
    return str(path)


@pytest.fixture
def two_by_two_file(tmp_path):
    """Two blocks of 2: at most 2 rooted loops a length, but 2 (l - 2) walk products at length l."""
    cov = [[1, 0.2, 0.4, 0.1], [0.2, 1, 0.3, 0.2], [0.4, 0.3, 1, 0.1], [0.1, 0.2, 0.1, 1]]
    path = tmp_path / "two_by_two.json"
    path.write_text(json.dumps({"covariance": cov, "partition": [2, 2]}))
    return str(path)


def assert_walk_cap_error(err):
    # One walk to length l forms 2 (l - 2) walk products on two blocks: l = 5,000,003 is the first over the cap.
    doc = json.loads(err)
    assert doc["error"] == "CombinatorialLimit"
    assert doc["count"] == 10_000_002
    assert doc["length"] == 5_000_003
    assert doc["cap"] == DEFAULT_LOOP_CAP
    assert "walk products" in doc["message"]


def assert_wide_cap_error(err):
    doc = json.loads(err)
    assert doc["error"] == "CombinatorialLimit"
    assert doc["count"] == 10_218_096
    assert doc["length"] == 3
    assert doc["cap"] == 10_000_000 == DEFAULT_LOOP_CAP


class TestOracleCheck:
    def test_equicorrelation_rows(self, capsys, equicorrelation_file):
        code, out, _ = run(capsys, ["oracle-check", equicorrelation_file, "--max-l", "4"])
        assert code == 0
        report = json.loads(out)
        third = report["rows"][2]
        assert third["l"] == 3
        assert third["loop_sum"] == pytest.approx(0.75, abs=1e-12)
        assert third["matrix_trace"] == pytest.approx(0.75, abs=1e-12)

    def test_two_block_odd_rows_exactly_zero(self, capsys, tmp_path):
        # The spectrum is exactly {-rho, rho}. At rho = 0.55 (l = 7, 9) and 0.65 (l = 7),
        # numpy's power rounds (-rho)^l and rho^l apart, so np.sum(lam**l) is not 0.
        path = tmp_path / "pair.json"
        for rho in (0.5, 0.55, 0.65):
            path.write_text(json.dumps({"covariance": [[1, rho], [rho, 1]], "partition": [1, 1]}))
            code, out, _ = run(capsys, ["oracle-check", str(path), "--max-l", "9"])
            assert code == 0
            rows = json.loads(out)["rows"]
            for row in rows:
                if row["l"] % 2 == 1:
                    assert row["loop_sum"] == 0.0 and row["matrix_trace"] == 0.0

    @pytest.mark.parametrize("sizes", [[2, 3, 4], [5] * 4])
    def test_trace_column_is_the_cumulants_power_sum(self, capsys, tmp_path, sizes):
        # The reference each row checks is the number kappa_l comes from: (l-1)!/2 is a double,
        # and both scale the spectrum by the same power of two, so the product is kappa_l exactly.
        path = tmp_path / "model.json"
        covariance = random_model(np.random.default_rng(7), sum(sizes), sizes).covariance
        path.write_text(json.dumps({"covariance": covariance.tolist(), "partition": sizes}))
        _, out, _ = run(capsys, ["analyze", str(path), "--cumulants", "6"])
        report = json.loads(out)
        code, out, _ = run(capsys, ["oracle-check", str(path), "--max-l", "6"])
        assert code == 0
        for row in json.loads(out)["rows"][1:]:
            l = row["l"]
            assert math.factorial(l - 1) / 2.0 * row["matrix_trace"] == report["cumulants"][l - 1]

    @pytest.mark.parametrize("max_l", ["0", "-1"])
    def test_max_l_below_one_exit_2(self, capsys, scalar_pair_file, max_l):
        code, out, err = run(capsys, ["oracle-check", scalar_pair_file, "--max-l", max_l])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_cap_exceeded_exit_3(self, capsys, monkeypatch, wide_file, tmp_path):
        calls = count_loop_trace(monkeypatch)
        code, out, err = run(capsys, ["oracle-check", wide_file, "--max-l", "3"])
        assert code == 3
        assert out == ""
        assert_wide_cap_error(err)
        assert calls[0] == 0  # not even l = 2's 47,306 loops ran
        # 4 scalar blocks pass the cap at l = 15 alone, with 3^15 - 3 loops; lengths 2..14
        # would take tens of seconds, and none runs.
        path = tmp_path / "four.json"
        path.write_text(json.dumps({"covariance": (0.7 * np.eye(4) + 0.3).tolist(), "partition": [1] * 4}))
        code, out, err = run(capsys, ["oracle-check", str(path), "--max-l", "15"])
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert (doc["error"], doc["count"], doc["length"]) == ("CombinatorialLimit", 14_348_904, 15)
        assert calls[0] == 0

    def test_analyze_cap_exceeded_exit_3(self, capsys, monkeypatch, wide_file):
        calls = count_loop_trace(monkeypatch)
        code, out, err = run(capsys, ["analyze", wide_file, "--oracle-max-l", "3"])
        assert code == 3
        assert out == ""
        assert_wide_cap_error(err)
        assert calls[0] == 0

    @pytest.mark.parametrize("command", [["oracle-check", "--max-l"], ["analyze", "--oracle-max-l"]])
    def test_two_block_walk_cap_exceeded_exit_3(self, capsys, monkeypatch, two_by_two_file, command):
        calls = count_loop_trace(monkeypatch)
        code, out, err = run(capsys, [command[0], two_by_two_file, command[1], "5000003"])
        assert code == 3
        assert out == ""
        assert_walk_cap_error(err)
        assert calls[0] == 0

    @pytest.mark.parametrize("command", [["oracle-check", "--max-l"], ["analyze", "--oracle-max-l"]])
    def test_two_block_long_run_accepted(self, capsys, monkeypatch, two_by_two_file, command):
        # One walk to l = 3164 forms 2 * 3162 walk products and serves every length; a walk per
        # length would form 3162 * 3163, over the cap.
        calls = count_loop_trace(monkeypatch)
        code, out, _ = run(capsys, [command[0], two_by_two_file, command[1], "3164"])
        assert code == 0
        report = json.loads(out)
        oracle = report["oracle"] if command[0] == "analyze" else report
        assert [row["l"] for row in oracle["rows"]] == list(range(1, 3165))
        assert calls[0] == sum(row["loop_count"] for row in oracle["rows"]) == 3164

    @pytest.mark.parametrize("sizes, max_l", [([2] * 8, 5), ([1] * 4, 14), ([2, 2], 3164)])
    def test_longest_length_under_cap_accepted(self, sizes, max_l):
        # Closed forms only, each run held to its longest length: 8 blocks of 2 have 16,800 loops
        # and 3,192 walk products at l = 5, 4 scalar blocks 4,782,972 and 3,188,640 at l = 14,
        # and 2 blocks 2 and 6,324 at l = 3164.
        assert len(_loop_counts(len(sizes), max_l)) == max_l

    def test_loop_cap_ignores_environment(self, capsys, equicorrelation_file, monkeypatch):
        monkeypatch.setenv("INFODENSITY_LOOP_CAP", "10")  # 18 loops at l = 4 would exceed it
        code, out, _ = run(capsys, ["oracle-check", equicorrelation_file, "--max-l", "5"])
        assert code == 0
        assert json.loads(out)["loop_cap"] == DEFAULT_LOOP_CAP


class TestSpectrumRefusedAtLoad:
    def test_every_subcommand_gives_the_same_error(self, capsys, tmp_path):
        # Equicorrelation at d = 50 with rho = 1 - 50 eps passes every pivot
        # check, but its computed spectrum has 1 + lambda_min below 0.
        d = 50
        cov = np.full((d, d), 1.0 - 50 * np.finfo(float).eps)
        np.fill_diagonal(cov, 1.0)
        path = tmp_path / "near_singular.json"
        path.write_text(json.dumps({"covariance": cov.tolist(), "partition": [1] * d}))
        results = [
            run(capsys, argv)
            for argv in (
                ["analyze", str(path)],
                ["simulate", str(path), "--n", "100000"],
                ["oracle-check", str(path), "--max-l", "2"],
            )
        ]
        assert [(code, out) for code, out, _ in results] == [(2, "")] * 3
        assert len({err for _, _, err in results}) == 1
        assert json.loads(results[0][2])["error"] == "EigenvalueOutOfRange"


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
        code, out, _ = run(capsys, ["homogeneous", "--d", "10,100,10,1000,100", "--rho", "0.3", "--max-l", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["parameters"] == {"d": [10, 100, 1000], "rho": 0.3, "max_l": 3}
        assert [r["d"] for r in report["rows"]] == [10] * 3 + [100] * 3 + [1000] * 3
        rows = [r for r in report["rows"] if r["l"] == 3]
        gaps = [abs(r["standardized"] - 2.828427) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01 * 2.828427

    def test_max_l_below_one_refused_before_any_model(self, capsys, monkeypatch):
        formed = []
        monkeypatch.setattr(cli, "homogeneous_covariance", formed.append)
        code, out, err = run(capsys, ["homogeneous", "--d", "1500", "--rho", "0.3", "--max-l", "0"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError", "message": "order must be >= 1, got 0"}
        assert formed == []

    def test_max_l_over_cap_refused_before_any_model(self, capsys, monkeypatch):
        formed = []
        monkeypatch.setattr(cli, "homogeneous_covariance", formed.append)
        code, out, err = run(capsys, ["homogeneous", "--d", "300", "--rho", "0.3", "--max-l", "100000"])
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "CumulantOverflow",
            "message": "cumulant order 100000 exceeds the cap of 10000 (MAX_CUMULANT_ORDER)",
            "order": 10_001,
        }
        assert formed == []

    def test_invalid_rho_exit_2(self, capsys):
        code, _, err = run(capsys, ["homogeneous", "--d", "3", "--rho", "-0.5"])
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("rho", ["nan", "inf", "-inf", "-Infinity"])
    def test_non_finite_rho_exit_2_as_non_finite_input(self, capsys, rho):
        # "-inf" does not look like a number to argparse, so it is passed in the "=" form.
        code, out, err = run(capsys, ["homogeneous", "--d", "3", f"--rho={rho}"])
        assert (code, out) == (2, "")
        assert strict_loads(err) == {"error": "NonFiniteInput", "message": f"rho must be finite, got {float(rho)}"}

    @pytest.mark.parametrize("text", ["-1e-3", "-1E-3", "-1.e-3", "-.1e-2", "-1e-03"])
    def test_negative_exponent_forms_are_values(self, capsys, text):
        expected = run(capsys, ["homogeneous", "--d", "3,4", "--rho", "-0.001", "--max-l", "3"])
        assert expected[0] == 0 and json.loads(expected[1])["parameters"]["rho"] == -0.001
        assert run(capsys, ["homogeneous", "--d", "3,4", "--rho", text, "--max-l", "3"]) == expected

    def test_negative_values_and_options_still_told_apart(self, capsys, scalar_pair_file):
        # -2.5e+1 is read as rho and refused by its range, not by the parser.
        code, _, err = run(capsys, ["homogeneous", "--d", "3", "--rho", "-2.5e+1"])
        assert code == 2 and strict_loads(err)["error"] == "ValueError"
        code, out, _ = run(capsys, ["simulate", scalar_pair_file, "--n", "100", "--seed", "-5", "--threads", "1"])
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 5
        for value in ("-x", "-e3", "-1e", "-1e-3x"):
            code, _, err = run(capsys, ["homogeneous", "--d", "3", "--rho", value])
            assert code == 2 and strict_loads(err)["error"] == "ArgumentError"

    def test_max_l_over_cap_exit_3(self, capsys):
        # The cap itself is accepted: the closed forms form no loop count or factorial above
        # order 20, and a ratio past the double range is null.
        code, out, _ = run(capsys, ["homogeneous", "--d", "50", "--rho", "1e-300", "--max-l", str(MAX_CUMULANT_ORDER)])
        assert code == 0
        rows = strict_loads(out)["rows"]
        assert len(rows) == MAX_CUMULANT_ORDER and rows[-1]["abs_diff"] == 0.0
        # rho = 0 gives a zero spectrum, which never overflows: only the cap stops it.
        code, out, err = run(capsys, ["homogeneous", "--d", "3", "--rho", "0", "--max-l", str(MAX_CUMULANT_ORDER + 1)])
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "CumulantOverflow"
        assert doc["order"] == MAX_CUMULANT_ORDER + 1

    def test_unallocatable_dimension_exit_3(self, capsys, monkeypatch):
        # A 10**7 x 10**7 array (727 TiB) is larger than a 47-bit user address space, so numpy
        # refuses it at once. Its private MemoryError subclass names itself MemoryError.
        monkeypatch.setattr(cli, "homogeneous_covariance", lambda hm: np.empty((10**7, 10**7)))
        code, out, err = run(capsys, ["homogeneous", "--d", "10", "--rho", "0.5"])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "MemoryError"

    def test_dimension_over_cap_refused_before_any_allocation(self, capsys):
        # 2049^2 is the first square above MAX_ARRAY_ENTRIES = 2^22; one 2049 x 2049 array is
        # 33.6 MB. The d = 10 model listed first is not formed either.
        run(capsys, ["homogeneous", "--d", "10", "--rho", "0.5"])
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["homogeneous", "--d", "10,2049", "--rho", "0.5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["error"] == "MemoryError"
        assert f"cap of {MAX_ARRAY_ENTRIES} entries" in doc["message"]
        assert peak < 2049 * 2049 * 8 / 100

    def test_high_orders_past_the_double_range_of_the_ratios(self, capsys):
        # kappa_170 = 3.19e-155, while kappa_170 / kappa_2^85 and the limit
        # 2^84 * 169! both exceed the double range.
        code, out, _ = run(capsys, ["homogeneous", "--d", "3", "--rho", "0.001", "--max-l", "170"])
        assert code == 0
        by_l = {row["l"]: row for row in json.loads(out)["rows"]}
        last = by_l[170]
        assert abs(last["general"] - last["closed_form"]) <= 1e-9 * abs(last["closed_form"])
        assert last["standardized"] is None and last["asymptotic_limit"] is None
        assert by_l[4]["standardized"] > 0 and by_l[4]["asymptotic_limit"] == 12.0

    def test_no_limit_without_standardization(self, capsys):
        code, out, _ = run(capsys, ["homogeneous", "--d", "3", "--rho", "0", "--max-l", "4"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(row["standardized"] is None and row["asymptotic_limit"] is None for row in rows)


def negative_zeros(doc, path="$"):
    """The paths of every -0.0 in a parsed JSON document."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in negative_zeros(value, f"{path}.{key}")]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in negative_zeros(value, f"{path}[{i}]")]
    return [path] if isinstance(doc, float) and doc == 0.0 and math.copysign(1.0, doc) < 0 else []


class TestNegativeZeros:
    """Independent blocks give exact zeros, and the reports print them as 0.0, not -0.0."""

    @pytest.fixture
    def independent_file(self, tmp_path):
        path = tmp_path / "independent.json"
        path.write_text(json.dumps({"covariance": np.eye(3).tolist(), "partition": [1, 2]}))
        return str(path)

    def test_analyze(self, capsys, independent_file):
        code, out, _ = run(capsys, ["analyze", independent_file, "--t-grid=-1:1:3"])
        report = json.loads(out)
        assert code == 0 and negative_zeros(report) == []
        zeros = [report["multiinformation_from_gamma"], *report["cgf_grid"]["cgf"]]
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in zeros)

    def test_homogeneous(self, capsys):
        code, out, _ = run(capsys, ["homogeneous", "--d", "3", "--rho", "0", "--max-l", "2"])
        report = json.loads(out)
        assert code == 0 and negative_zeros(report) == []
        closed = report["rows"][0]["closed_form"]
        assert closed == 0.0 and math.copysign(1.0, closed) == 1.0


def check_records(report):
    """(record, |difference|, bound) for every check record in a report, told apart by their keys.

    A record other than a Monte Carlo row carries its ``bound``, which must be
    the bound its rule gives. Sections that carry ``rows`` hold the ``ok`` of
    their rows and are not records themselves.
    """
    found = []
    pending = [report]
    while pending:
        node = pending.pop()
        for value in node.values():
            if isinstance(value, dict):
                pending.append(value)
            elif isinstance(value, list):
                pending.extend(v for v in value if isinstance(v, dict))
        if "ok" not in node or "rows" in node:
            continue
        if "z" in node:
            found.append((node, abs(node["z"]), Z_THRESHOLD))
        elif "loop_sum" in node:
            bound = ORACLE_TOL * max(1.0, abs(node["loop_sum"]), abs(node["matrix_trace"]))
            found.append((node, node["abs_diff"], bound))
        elif node is report.get("variance_agreement"):
            bound = ORACLE_TOL * max(1.0, abs(report["variance"]), abs(report["cumulants"][1]))
            found.append((node, node["abs_diff"], bound))
        else:
            assert node is report["multiinformation_agreement"]
            found.append((node, node["abs_diff"], AGREEMENT_TOL))
        if "z" not in node:
            assert node["bound"] == found[-1][2]
    return found


def failed_records(report):
    """The failed check records of a report, after checking every record's margin."""
    records = check_records(report)
    assert records
    for record, diff, bound in records:
        assert record["margin"] == diff / bound
        assert (record["margin"] <= 1.0) == record["ok"]
    return [record for record, _, _ in records if not record["ok"]]


class TestCheckRecords:
    """Each agreement is a check record with a margin, and the records alone set the exit code."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{model}", "--oracle-max-l", "4", "--mc-n", "20000", "--mc-seed", "5"],
            ["oracle-check", "{model}", "--max-l", "4"],
            ["simulate", "{model}", "--n", "20000", "--seed", "42"],
        ],
        ids=["analyze", "oracle-check", "simulate"],
    )
    def test_passing_reports(self, capsys, equicorrelation_file, argv):
        code, out, _ = run(capsys, [a.format(model=equicorrelation_file) for a in argv])
        assert code == 0
        assert failed_records(json.loads(out)) == []

    def test_failing_multiinformation_agreement(self, capsys, equicorrelation_file, monkeypatch):
        from_gamma = cli.multiinformation_from_gamma
        monkeypatch.setattr(cli, "multiinformation_from_gamma", lambda model: from_gamma(model) + 3e-9)
        code, out, _ = run(capsys, ["analyze", equicorrelation_file, "--oracle-max-l", "3"])
        assert code == 1
        report = json.loads(out)
        assert failed_records(report) == [report["multiinformation_agreement"]]
        assert report["multiinformation_agreement"]["margin"] > 1.0

    @pytest.mark.parametrize("command", ["analyze", "oracle-check"])
    def test_failing_oracle_row(self, capsys, equicorrelation_file, monkeypatch, command):
        loops = cli.trace_via_loops

        def shifted(model, max_length):
            sums = loops(model, max_length)
            sums[1] += 1e-6
            return sums

        monkeypatch.setattr(cli, "trace_via_loops", shifted)
        flag = "--oracle-max-l" if command == "analyze" else "--max-l"
        code, out, _ = run(capsys, [command, equicorrelation_file, flag, "4"])
        assert code == 1
        report = json.loads(out)
        oracle = report["oracle"] if command == "analyze" else report
        assert failed_records(report) == [oracle["rows"][1]]
        assert oracle["rows"][1]["l"] == 2 and oracle["ok"] is False

    def test_failing_monte_carlo_row(self, capsys, scalar_pair_file):
        code, out, _ = run(
            capsys, ["simulate", scalar_pair_file, "--n", "20000", "--seed", "42", "--corrupt-order", "3"]
        )
        assert code == 1
        report = json.loads(out)
        assert failed_records(report) == [report["rows"][2]]
        assert report["rows"][2]["order"] == 3 and report["ok"] is False

    @pytest.mark.parametrize(
        "report, code",
        [
            ({"rows": [{"ok": True}, {"ok": True}], "ok": True, "t": [0.0, 1.0]}, 0),
            ({"section": {"rows": [{"ok": True}, {"ok": False}]}}, 1),
            ({"check": {"abs_diff": 1.0, "ok": False}, "values": [1.0]}, 1),
            ({"rows": [{"l": 1, "standardized": None}], "parameters": {"d": 3}}, 0),
        ],
        ids=["all-pass", "nested-row", "section-record", "no-records"],
    )
    def test_exit_code_from_records(self, report, code):
        assert _exit_code(report) == code


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special costs about 25 ms of import; no code path of the CLI needs it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(infodensity.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, infodensity.cli; print('scipy.special' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "False"


_WITHOUT_SCIPY = """
import contextlib, importlib.abc, io, json, sys

attempts = []


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            attempts.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from infodensity import cli

model = sys.argv[1]
runs = [
    ["analyze", model, "--t-grid=-0.1:0.1:5", "--oracle-max-l", "3", "--mc-n", "20000"],
    ["simulate", model, "--n", "20000", "--threads", "2"],
    ["oracle-check", model, "--max-l", "4"],
    ["homogeneous", "--d", "4", "--rho", "0.3", "--max-l", "4"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
print(json.dumps({"codes": codes, "attempts": attempts, "loaded": loaded}))
"""


def test_cli_runs_without_scipy(tmp_path):
    # The package depends on numpy and orjson only: every subcommand runs, and
    # passes, with each import of scipy refused, and none is even attempted.
    cov = (np.full((4, 4), 0.3) + 0.7 * np.eye(4)).tolist()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"covariance": cov, "partition": [2, 1, 1]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(infodensity.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "attempts": [], "loaded": []}


class TestBrokenPipe:
    """A reader that closes stdout early ends the run without a traceback and keeps the exit code."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["homogeneous", "--d", "3", "--rho", "0", "--max-l", "3"], 0),
            (["simulate", "{model}", "--n", "2000", "--corrupt-order", "1"], 1),
        ],
        ids=["homogeneous", "failing-simulate"],
    )
    def test_closed_stdout(self, scalar_pair_file, argv, code):
        proc = self.run_into_closed_pipe([a.format(model=scalar_pair_file) for a in argv])
        assert proc.returncode == code
        assert proc.stderr == ""

    def test_report_larger_than_the_pipe_buffer(self, tmp_path):
        # The print itself, not the flush after it, meets the closed pipe.
        rng = np.random.default_rng(21)
        a = rng.standard_normal((20, 20))
        path = tmp_path / "m20.json"
        path.write_text(json.dumps({"covariance": (a @ a.T + 10 * np.eye(20)).tolist(), "partition": [5] * 4}))
        proc = self.run_into_closed_pipe(["analyze", str(path), "--t-grid=-0.1:0.1:5000"])
        assert proc.returncode == 0
        assert proc.stderr == ""

    @staticmethod
    def run_into_closed_pipe(argv):
        """Run the CLI in a fresh process whose stdout is a pipe with its read end already closed."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(infodensity.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-c", "import sys; from infodensity.cli import main; sys.exit(main())", *argv],
                env=dict(os.environ, PYTHONPATH=src),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)


def strict_loads(text):
    """json.loads that refuses the NaN, Infinity and -Infinity literals JSON lacks."""

    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestJsonDocuments:
    """Reports and error documents are strict JSON, written by one encoder."""

    def test_infinite_z_written_as_null(self, capsys, tmp_path):
        # Independent blocks: every standard error is 0, so the shifted order-1 target gives z = -inf.
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"covariance": np.eye(2).tolist(), "partition": [1, 1]}))
        code, out, _ = run(capsys, ["simulate", str(path), "--n", "1000", "--corrupt-order", "1"])
        assert code == 1
        rows = strict_loads(out)["rows"]
        assert rows[0]["z"] is None and rows[0]["margin"] is None and rows[0]["ok"] is False
        assert all(row["z"] == 0.0 and row["ok"] for row in rows[1:])

    def test_seed_echoed_mod_2_64(self, capsys, scalar_pair_file):
        runs = [run(capsys, ["simulate", scalar_pair_file, "--n", "20000", "--seed", seed])
                for seed in (str(2**64 + 3), "3")]
        assert [code for code, _, _ in runs] == [0, 0]
        big, small = (strict_loads(out) for _, out, _ in runs)
        assert big["seed"] == 3
        assert big == small

    def test_cumulant_order_past_64_bits_exit_3(self, capsys, scalar_pair_file):
        code, out, err = run(capsys, ["analyze", scalar_pair_file, "--cumulants", str(10**26)])
        assert code == 3
        assert out == ""
        doc = strict_loads(err)
        assert doc["error"] == "CumulantOverflow"
        assert doc["order"] == MAX_CUMULANT_ORDER + 1 == 10_001
        assert str(10**26) in doc["message"]

    @pytest.mark.parametrize(
        "covariance, argv, code, fields",
        [
            (
                [[1, 0.5], [0.5, 1]],
                ["analyze", "{model}", "--t-grid=-5:5:3"],
                3,
                {"error": "OutOfDomain", "t": -5.0, "domain": {"lower": -2.0, "upper": 2.0}},
            ),
            ([[1, 2], [2, 1]], ["analyze", "{model}"], 2, {"error": "NotPositiveDefinite", "pivot_index": 1}),
            (
                [[1, 0.5], [0.5, 1]],
                ["oracle-check", "{model}", "--max-l", "5000003"],
                3,
                {"error": "CombinatorialLimit", "count": 10_000_002, "cap": DEFAULT_LOOP_CAP, "length": 5_000_003},
            ),
            ([[1, 0.5], [0.5, 1]], ["simulate", "{model}", "--n", "3"], 2, {"error": "BatchTooSmall"}),
        ],
        ids=["OutOfDomain", "NotPositiveDefinite", "CombinatorialLimit", "BatchTooSmall"],
    )
    def test_error_document_carries_the_error_s_own_fields(self, capsys, tmp_path, covariance, argv, code, fields):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"covariance": covariance, "partition": [1, 1]}))
        got, out, err = run(capsys, [a.format(model=path) for a in argv])
        assert (got, out) == (code, "")
        doc = strict_loads(err)
        assert list(doc)[:2] == ["error", "message"]
        del doc["message"]
        assert doc == fields

    def test_report_parses_back_to_the_handler_dict(self, capsys, equicorrelation_file):
        argv = ["analyze", equicorrelation_file, "--t-grid=-0.9:0.9:7", "--oracle-max-l", "5", "--mc-n", "20000"]
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
        code, out, _ = run(capsys, argv)
        assert code == 0
        # dict equality compares every float with ==, so the parsed values are the handler's.
        assert strict_loads(out) == report


class TestUsageErrors:
    """A usage error is one strict-JSON line on stderr with exit 2, like every other input error."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "{model}", "--cumulants", "x"], "invalid int value: 'x'"),
            (["homogeneous", "--d", "3", "--rho", "0.2", "--format", "csv"], "unrecognized arguments: --format csv"),
            (["simulate", "{model}"], "the following arguments are required: --n"),
            (["homogeneous", "--d", "10,x", "--rho", "0.2"], "argument --d: expects D1,D2,... of integers, got '10,x'"),
            (["analyze", "{model}", "--threads", "2"], "unrecognized arguments: --threads 2"),
        ],
        ids=["bad-int", "unknown-option", "missing-option", "bad-dimension-item", "analyze-threads"],
    )
    def test_usage_error_is_one_json_line(self, capsys, scalar_pair_file, argv, message):
        code, out, err = run(capsys, [a.format(model=scalar_pair_file) for a in argv])
        assert (code, out) == (2, "")
        assert err.endswith("\n") and "\n" not in err[:-1]
        doc = strict_loads(err)
        assert doc["error"] == "ArgumentError" and message in doc["message"]

    def test_help_stays_text(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: infodensity analyze")


class TestParserReuse:
    """``main`` builds its parser once per process; a call must not see the previous call's options."""

    @staticmethod
    def _fresh(capsys, argv):
        _build_parser.cache_clear()
        return run(capsys, argv)

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_analyze_without_grid_after_grid(self, capsys, equicorrelation_file):
        with_grid = ["analyze", equicorrelation_file, "--t-grid=-0.5:0.5:5"]
        without = ["analyze", equicorrelation_file]
        first = run(capsys, with_grid)
        second = run(capsys, without)
        assert first[0] == second[0] == 0
        assert "cgf_grid" in json.loads(first[1]) and "cgf_grid" not in json.loads(second[1])
        assert self._fresh(capsys, with_grid) == first
        assert self._fresh(capsys, without) == second

    def test_simulate_without_corruption_after_corruption(self, capsys, scalar_pair_file):
        corrupted = ["simulate", scalar_pair_file, "--n", "20000", "--seed", "42", "--corrupt-order", "2"]
        plain = corrupted[:-2]
        first = run(capsys, corrupted)
        second = run(capsys, plain)
        assert (first[0], second[0]) == (1, 0)
        assert self._fresh(capsys, corrupted) == first
        assert self._fresh(capsys, plain) == second

    def test_simulate_threads_default_follows_the_cpus_of_each_run(self, capsys, monkeypatch, scalar_pair_file):
        # The parser is built under one usable CPU, and the count widens to two before the second run.
        _build_parser.cache_clear()
        argv = ["simulate", scalar_pair_file, "--n", "200000"]  # four chunks
        parsers, reports = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            parsers.append(_build_parser())
            code, out, _ = run(capsys, argv)
            assert code == 0
            reports.append(json.loads(out))
        assert parsers[0] is parsers[1]
        assert [report.pop("threads") for report in reports] == [1, 2]
        assert reports[0] == reports[1]
