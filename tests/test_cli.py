"""CLI tests: exit codes, output files, and row determinism."""

import json

import numpy as np
import pytest

from fedagg.cli import run
from fedagg.model import GaussianSourceModel
from fedagg.region import single_source_rd


def write_general_model(path, sigma, c):
    model = GaussianSourceModel(sigma_x=np.asarray(sigma), c=np.asarray(c))
    path.write_text(model.to_json())
    return str(path)


def write_symmetric_model(path, rho=0.5, sigma2=1.0, groups=((2, 1.0),)):
    doc = {"rho": rho, "sigma2": sigma2,
           "groups": [{"size": s, "rate": r} for s, r in groups]}
    path.write_text(json.dumps(doc))
    return str(path)


def result_rows(path):
    """CSV body without the timestamp comment line."""
    lines = path.read_text().splitlines()
    return [l for l in lines if not l.startswith("#")]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["bogus-command"]) == 2
        assert run([]) == 2

    def test_missing_model_file(self, capsys, tmp_path):
        assert run(["optimize", "--model", str(tmp_path / "nope.json"),
                    "--budget", "1.0"]) == 3

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["optimize", "--model", str(bad), "--budget", "1.0"]) == 3

    def test_missing_budget(self, capsys, tmp_path):
        p = write_general_model(tmp_path / "m.json", [[1.0]], [1.0])
        assert run(["optimize", "--model", p]) == 3

    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0

    def test_numeric_failure(self, capsys, tmp_path):
        # 2^(2r) - 1 is about 1.4e-300 here, so sigma2 / d leaves the float range.
        p = write_symmetric_model(tmp_path / "s.json", sigma2=1e10, groups=((2, 1e-300),))
        assert run(["optimize", "--model", p, "--out", str(tmp_path / "res.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: one-group optimum exceeds the float range")


def assert_rejected(tmp_path, argv):
    """argv ends in a config error (exit 3) before any output file is written."""
    before = set(tmp_path.iterdir())
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 3
    assert set(tmp_path.iterdir()) == before


class TestMisplacedInputs:
    def test_optimize_symmetric_rejects_budget(self, capsys, tmp_path):
        p = write_symmetric_model(tmp_path / "s.json")
        assert_rejected(tmp_path, ["optimize", "--model", p, "--budget", "9,9"])

    def test_verify_symmetric_rejects_budget(self, capsys, tmp_path):
        p = write_symmetric_model(tmp_path / "s.json")
        assert_rejected(tmp_path, ["verify", "--model", p, "--budget", "9,9", "--q", "1,1"])

    @pytest.mark.parametrize("lam", ["nan", "0.5"])
    def test_general_model_rejects_lambda(self, capsys, tmp_path, lam):
        # --lam weighs a symmetric model's devices; a general model's c does
        # that, so any --lam there is a config error, not a dropped value.
        p = write_general_model(tmp_path / "m.json", [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5])
        assert_rejected(tmp_path, ["optimize", "--model", p, "--budget", "1,1.5", "--lam", lam])
        assert_rejected(tmp_path, ["verify", "--model", p, "--budget", "1,1.5", "--q", "1,1",
                                   "--lam", lam])

    def test_optimize_rejects_missized_budget(self, capsys, tmp_path):
        p = write_general_model(tmp_path / "m.json", [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5])
        assert_rejected(tmp_path, ["optimize", "--model", p, "--budget", "1,1,1"])

    def test_fl_train_rejects_missized_mbtc_budget(self, capsys, tmp_path):
        assert_rejected(tmp_path, ["fl-train", "--devices", "4", "--dim", "8", "--rounds", "1",
                                   "--aggregator", "mbtc", "--budget", "1,2", "--seed", "1"])

    def test_verify_rejects_missized_q(self, capsys, tmp_path):
        p = write_general_model(tmp_path / "m.json", [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5])
        assert_rejected(tmp_path, ["verify", "--model", p, "--budget", "1,1", "--q", "1,1,1"])

    def test_optimize_rejects_non_finite_model(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"M": 2, "sigma_x": [1.0, NaN, NaN, 1.0], "c": [0.5, 0.5]}')
        assert_rejected(tmp_path, ["optimize", "--model", str(p), "--budget", "1,1"])

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_optimize_rejects_invalid_eps(self, capsys, tmp_path, eps):
        p = write_general_model(tmp_path / "m.json", [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5])
        assert_rejected(tmp_path, ["optimize", "--model", p, "--budget", "1,1.5",
                                   f"--eps={eps}"])

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_optimize_symmetric_rejects_non_finite_lambda(self, capsys, tmp_path, lam):
        p = write_symmetric_model(tmp_path / "s.json")
        assert_rejected(tmp_path, ["optimize", "--model", p, "--lam", lam])


FL_ARGS = ["fl-train", "--devices", "2", "--dim", "4", "--rounds", "1",
           "--aggregator", "qsgd:2", "--seed", "1"]
SWEEP_ARGS = ["sweep-distortion", "--rho", "0.5", "--rates", "1", "--seed", "1"]


@pytest.mark.parametrize("argv, flag, value", [
    (SWEEP_ARGS, "--N", "0"),
    (SWEEP_ARGS, "--M", "0"),
    (FL_ARGS, "--dim", "0"),
    (FL_ARGS, "--devices", "0"),
    (FL_ARGS, "--samples-per-device", "0"),
    (FL_ARGS, "--rounds", "0"),
    (["optimize", "--model", "m.json"], "--max-iter", "-3"),
])
def test_non_positive_count_is_usage_error(capsys, tmp_path, argv, flag, value):
    before = set(tmp_path.iterdir())
    assert run(argv + [flag, value, "--out", str(tmp_path / "out.csv")]) == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


class TestOptimize:
    def test_single_source_output(self, capsys, tmp_path):
        p = write_general_model(tmp_path / "m.json", [[1.0]], [1.0])
        out = tmp_path / "res.json"
        assert run(["optimize", "--model", p, "--budget", "1.0",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        _, d_star = single_source_rd(1.0, 1.0)
        assert payload["D_star"] == pytest.approx(d_star, abs=1e-4)
        assert (tmp_path / "res_trace.csv").exists()
        assert (tmp_path / "res_meta.json").exists()
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["D_star"] == payload["D_star"]

    def test_symmetric_model(self, capsys, tmp_path):
        p = write_symmetric_model(tmp_path / "s.json")
        out = tmp_path / "res.json"
        assert run(["optimize", "--model", p, "--lam", "0.5",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["q_star"]) == 2
        assert payload["D_star"] > 0
        # The model JSON's type picks the optimizer; there is no --symmetric flag.
        config = json.loads((tmp_path / "res_meta.json").read_text())["config"]
        assert "symmetric" not in config
        assert run(["optimize", "--model", p, "--symmetric", "--out", str(out)]) == 2

    def test_symmetric_model_lambda_defaults_to_one(self, capsys, tmp_path):
        p = write_symmetric_model(tmp_path / "s.json")
        out, one = tmp_path / "res.json", tmp_path / "one.json"
        assert run(["optimize", "--model", p, "--out", str(out)]) == 0
        assert run(["optimize", "--model", p, "--lam", "1", "--out", str(one)]) == 0
        assert json.loads(out.read_text()) == json.loads(one.read_text())
        assert json.loads((tmp_path / "res_meta.json").read_text())["config"]["lambda"] == 1.0

    def test_symmetric_model_above_selection_cap(self, capsys, tmp_path):
        # 5 groups of 20 devices: 4,084,100 selections, above MAX_SELECTIONS;
        # the optimizer carries the 31 whole-group rows.
        groups = tuple((20, r) for r in (1.0, 1.5, 2.0, 2.5, 3.0))
        p = write_symmetric_model(tmp_path / "s.json", rho=0.8, groups=groups)
        out = tmp_path / "res.json"
        assert run(["optimize", "--model", p, "--lam", "0.01", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["q_star"]) == 100 and payload["D_star"] > 0

    def test_deterministic_rows(self, capsys, tmp_path):
        p = write_general_model(
            tmp_path / "m.json", [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5]
        )
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["optimize", "--model", p, "--budget", "1.0,1.5",
                        "--out", str(out)]) == 0
            trace = tmp_path / (name.rsplit(".", 1)[0] + "_trace.csv")
            outs.append((out.read_text(), result_rows(trace)))
        assert outs[0] == outs[1]

    def test_side_files_stay_in_dotted_directory(self, capsys, tmp_path):
        p = write_general_model(tmp_path / "m.json", [[1.0]], [1.0])
        out_dir = tmp_path / "res.d"
        out_dir.mkdir()
        assert run(["optimize", "--model", p, "--budget", "1.0",
                    "--out", str(out_dir / "opt")]) == 0
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "opt", "opt_meta.json", "opt_trace.csv"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.json", "res.d"]


class TestSweep:
    def test_rows_deterministic(self, capsys, tmp_path):
        args = ["sweep-distortion", "--rho", "0.5", "--rates", "1.0",
                "--M", "2", "--N", "1024", "--seed", "3",
                "--schemes", "qsgd,uniform"]
        texts = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert run(args + ["--out", str(out)]) == 0
            texts.append(result_rows(out))
        assert texts[0] == texts[1]
        assert len(texts[0]) == 1 + 2  # header + two schemes
        stdout = capsys.readouterr().out
        assert stdout.count("\n") >= 2


class TestFlTrain:
    def test_runs_and_deterministic(self, capsys, tmp_path):
        args = ["fl-train", "--devices", "2", "--dim", "8", "--rounds", "5",
                "--aggregator", "qsgd:2", "--seed", "9"]
        texts = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            assert run(args + ["--out", str(out)]) == 0
            texts.append(result_rows(out))
        assert texts[0] == texts[1]
        assert len(texts[0]) == 1 + 5

    def test_mbtc_with_constant_updates(self, capsys, tmp_path):
        # With dim 1 every mean-removed update is zero: all devices stay silent.
        assert run(["fl-train", "--devices", "2", "--dim", "1", "--rounds", "1",
                    "--aggregator", "mbtc", "--budget", "2", "--seed", "1",
                    "--out", str(tmp_path / "out.csv")]) == 0

    def test_loss_gaps_are_never_negative(self, capsys, tmp_path):
        # One device in one dimension reaches its optimum in the first round,
        # where L(theta) - L* rounded to -1.73e-18.
        out = tmp_path / "out.csv"
        assert run(["fl-train", "--devices", "1", "--dim", "1", "--rounds", "2",
                    "--aggregator", "mbtc", "--budget", "1", "--seed", "1", "--out", str(out)]) == 0
        gaps = [float(row.split(",")[1]) for row in result_rows(out)[1:]]
        assert len(gaps) == 2 and min(gaps) >= 0.0

    @pytest.mark.parametrize("spec, rate_max", [("error-free", "inf"), ("uniform:2", "10")])
    def test_aggregator_specs(self, capsys, tmp_path, spec, rate_max):
        # uniform:2 charges 2 bits plus one 64-bit scale over dim 8.
        assert run(["fl-train", "--devices", "3", "--dim", "8", "--rounds", "2",
                    "--aggregator", spec, "--seed", "1", "--out", str(tmp_path / "out.csv")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[-1] for row in rows] == [rate_max, rate_max]

    def test_mbtc_requires_budget(self, capsys):
        assert run(["fl-train", "--devices", "2", "--dim", "8", "--rounds", "1",
                    "--aggregator", "mbtc", "--seed", "1"]) == 3

    def test_unknown_aggregator(self, capsys):
        assert run(["fl-train", "--devices", "2", "--dim", "8", "--rounds", "1",
                    "--aggregator", "nope", "--seed", "1"]) == 3


class TestVerify:
    def test_builtin_suite_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_constraint_report(self, capsys, tmp_path):
        p = write_general_model(
            tmp_path / "m.json", [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5]
        )
        assert run(["verify", "--model", p, "--budget", "1.0,1.0",
                    "--q", "1.0,1.0", "--out", str(tmp_path / "v.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "subset_mask,required_bits,budget_bits,slack"
        assert len(lines) == 1 + 3  # 2^2 - 1 subsets
        assert len(result_rows(tmp_path / "v.csv")) == 1 + 3
        assert (tmp_path / "v_meta.json").exists()

    def test_grouped_model_expands(self, capsys, tmp_path):
        # Groups (2, 1 bit) and (1, 2 bits) expand to three devices with
        # budgets 1, 1 and 2: all 2^3 - 1 rows, by subset mask.
        p = write_symmetric_model(tmp_path / "s.json", groups=((2, 1.0), (1, 2.0)))
        assert run(["verify", "--model", p, "--q", "1,1,0.5", "--lam", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "subset_mask,required_bits,budget_bits,slack"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(1, 8))
        assert [float(row[2]) for row in rows] == [1, 1, 2, 2, 3, 3, 4]

    def test_q_required_with_model(self, capsys, tmp_path):
        p = write_general_model(tmp_path / "m.json", [[1.0]], [1.0])
        assert run(["verify", "--model", p, "--budget", "1.0"]) == 3
