import json
import subprocess
import sys

import numpy as np
import pytest

from ufrank import (EXTRA_TREES, EnsembleConfig, SynthSpec, build, cli,
                    load_csv, write_planted)
from ufrank.cli import main


@pytest.fixture()
def planted_csv(tmp_path):
    spec = SynthSpec(m=24, n_informative=2, n_noise=4, clusters=2,
                     separation=6.0, seed=7, name="toy")
    csv_path, _ = write_planted(spec, tmp_path / "data")
    return csv_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out):
    return json.loads(out)


class TestRank:
    def test_artifact_names_and_content(self, planted_csv, tmp_path, capsys):
        out_dir = tmp_path / "art"
        code, out, err = run_cli(
            capsys, "rank", "--data", str(planted_csv),
            "--target-column", "target", "--method", "genie3",
            "--trees", "8", "--seed", "5", "--out", str(out_dir))
        assert (code, err) == (0, "")
        payload = stdout_json(out)
        assert payload["artifact"] == "ranking"
        assert payload["config"]["trees"] == 8
        assert payload["config"]["seed"] == 5
        assert len(payload["ranking"]) == 6

        scores = [row["importance"] for row in payload["ranking"]]
        assert scores == sorted(scores, reverse=True)

        json_path = out_dir / "toy_genie3_rank_5.json"
        csv_path = out_dir / "toy_genie3_rank_5.csv"
        assert json_path.exists() and csv_path.exists()
        assert json.loads(json_path.read_text()) == payload

    def test_rerun_is_byte_identical(self, planted_csv, tmp_path, capsys):
        argv = ["rank", "--data", str(planted_csv), "--target-column",
                "target", "--method", "urelief", "--seed", "1"]
        first = run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
        second = run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
        assert first[0] == second[0] == 0
        a = (tmp_path / "a" / "toy_urelief_rank_1.json").read_bytes()
        b = (tmp_path / "b" / "toy_urelief_rank_1.json").read_bytes()
        assert a == b

    def test_worker_count_never_changes_artifacts(self, planted_csv, tmp_path,
                                                  capsys):
        blobs = []
        for w in ("1", "2"):
            out_dir = tmp_path / f"w{w}"
            code, _, _ = run_cli(
                capsys, "rank", "--data", str(planted_csv),
                "--target-column", "target", "--trees", "6",
                "--workers", w, "--out", str(out_dir))
            assert code == 0
            blobs.append((out_dir / "toy_genie3_rank_0.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(self, planted_csv,
                                                        tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trees": 7, "seed": 9, "method": "symbolic"}))
        code, out, _ = run_cli(
            capsys, "rank", "--data", str(planted_csv), "--target-column",
            "target", "--config", str(cfg), "--trees", "3")
        assert code == 0
        resolved = stdout_json(out)["config"]
        assert resolved["trees"] == 3          # explicit flag wins
        assert resolved["seed"] == 9           # config beats default 0
        assert resolved["method"] == "symbolic"
        assert resolved["subset_rule"] == "log2"  # untouched default

    def test_config_rejects_unknown_and_invalid(self, planted_csv, tmp_path,
                                                capsys):
        bad_key = tmp_path / "bad_key.json"
        bad_key.write_text(json.dumps({"tree_count": 5}))
        code, _, err = run_cli(capsys, "rank", "--data", str(planted_csv),
                               "--config", str(bad_key))
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"

        bad_value = tmp_path / "bad_value.json"
        bad_value.write_text(json.dumps({"ensemble": "boosting"}))
        code, _, err = run_cli(capsys, "rank", "--data", str(planted_csv),
                               "--config", str(bad_value))
        assert code == 1
        assert "boosting" in json.loads(err)["error"]["message"]

        code, _, err = run_cli(capsys, "rank", "--data", str(planted_csv),
                               "--config", str(tmp_path / "missing.json"))
        assert code == 1

    @pytest.mark.parametrize("command,values", [
        ("rank", {"trees": None}), ("rank", {"trees": [3]}),
        ("rank", {"method": ["genie3"]}), ("rank", {"data": {"a": 1}}),
        ("rank", {"workers": True}), ("curve", {"seed": None}),
        ("curve", {"folds": None})])
    def test_config_rejects_null_and_non_scalar_values(
            self, planted_csv, tmp_path, capsys, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, command, "--data", str(planted_csv),
                                 "--target-column", "target", "--config",
                                 str(cfg))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        record = json.loads(err)["error"]
        assert record["kind"] == "usage"
        assert repr(next(iter(values))) in record["message"]

    def test_config_null_restores_a_null_default(self, planted_csv, tmp_path,
                                                 capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"neighbors": None, "iterations": None,
                                   "method": "urelief"}))
        code, out, _ = run_cli(capsys, "rank", "--data", str(planted_csv),
                               "--target-column", "target", "--config",
                               str(cfg))
        assert code == 0
        resolved = stdout_json(out)["config"]
        assert (resolved["neighbors"], resolved["iterations"]) == (23, 24)


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "rank")  # --data is required
        assert code == 1
        assert json.loads(err)["error"]["exit_code"] == 1

        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_data_errors_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "rank", "--data",
                               str(tmp_path / "nope.csv"))
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "data"

    def test_incompatible_parameters_exit_2(self, planted_csv, capsys):
        # 24 examples cannot support a 30-neighbor query
        code, _, err = run_cli(capsys, "rank", "--data", str(planted_csv),
                               "--target-column", "target", "--method",
                               "urelief", "--neighbors", "30")
        assert code == 2
        assert "neighbors" in json.loads(err)["error"]["message"]

    def test_configuration_the_data_cannot_support_exits_2(self, planted_csv,
                                                            capsys):
        # 24 examples and 6 attributes: 30 folds and a top-7 are too many
        for flags, word in ((("--folds", "30"), "fold"),
                            (("--top-k", "7"), "k_features")):
            code, _, err = run_cli(capsys, "eval", "--data", str(planted_csv),
                                   "--target-column", "target", "--trees",
                                   "3", *flags)
            assert code == 2
            assert word in json.loads(err)["error"]["message"]

    def test_internal_value_error_is_not_a_data_error(self, planted_csv,
                                                      monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "ranking_rows", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["rank", "--data", str(planted_csv), "--target-column",
                  "target", "--method", "urelief"])
        assert capsys.readouterr().err == ""

    def test_computation_errors_exit_3(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = "\n".join(["a,b"] + ["1.0,2.0"] * 8)
        flat.write_text(rows + "\n")
        code, _, err = run_cli(capsys, "rank", "--data", str(flat),
                               "--method", "rf-score", "--trees", "4")
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "computation"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_importance_exits_3(self, tmp_path, capsys):
        # every value is finite, so the table passes ingestion, but column
        # a's variance overflows and its rf-score is NaN
        huge = tmp_path / "huge.csv"
        rng = np.random.default_rng(0)
        huge.write_text("\n".join(
            ["a,b,c"] + [f"{(-1) ** i * 1e160!r},{rng.normal()!r},"
                         f"{rng.normal()!r}" for i in range(12)]) + "\n")
        code, out, err = run_cli(capsys, "rank", "--data", str(huge),
                                 "--method", "rf-score", "--trees", "4")
        assert code == 3
        assert out == ""
        record = json.loads(err)["error"]
        assert record["kind"] == "computation"
        assert "not finite" in record["message"]

    def test_overflowing_column_does_not_block_splits(self, tmp_path, capsys):
        # the same table: column a's variance overflows, so its weight in h
        # is 1/inf = 0, and the finite columns must still split every tree
        huge = tmp_path / "huge.csv"
        rng = np.random.default_rng(0)
        huge.write_text("\n".join(
            ["a,b,c"] + [f"{(-1) ** i * 1e160!r},{rng.normal()!r},"
                         f"{rng.normal()!r}" for i in range(12)]) + "\n")
        e = build(load_csv(huge), EnsembleConfig(EXTRA_TREES, n_trees=4))
        assert all(flat.attr.size > 1 for flat in e.flats)
        code, out, err = run_cli(capsys, "rank", "--data", str(huge),
                                 "--method", "genie3", "--trees", "4")
        assert (code, err) == (0, "")
        importance = [row["importance"] for row in stdout_json(out)["ranking"]]
        assert max(importance) > 0.0


class TestEvalCurveCompare:
    def eval_artifact(self, capsys, csv_path, method, out_dir, seed="0"):
        code, _, _ = run_cli(
            capsys, "eval", "--data", str(csv_path), "--target-column",
            "target", "--method", method, "--trees", "5", "--folds", "4",
            "--top-k", "3", "--seed", seed, "--out", str(out_dir))
        assert code == 0

    def test_eval_emits_mse(self, planted_csv, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--data", str(planted_csv), "--target-column",
            "target", "--trees", "5", "--folds", "4", "--top-k", "3")
        assert code == 0
        payload = stdout_json(out)
        assert payload["artifact"] == "eval"
        assert payload["mse"] >= 0.0
        assert payload["config"]["folds"] == 4

    def test_urelief_record_reruns_to_the_same_curve(self, planted_csv,
                                                     capsys):
        # every fold resolves K and I on its own training rows, so the
        # record must leave them unresolved for a re-run to match
        argv = ["curve", "--data", str(planted_csv), "--target-column",
                "target", "--method", "urelief", "--folds", "4"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        first = stdout_json(out)
        given = [flag for key in ("neighbors", "iterations")
                 if first["config"][key] is not None
                 for flag in (f"--{key}", str(first["config"][key]))]
        code, out, _ = run_cli(capsys, *argv, *given)
        assert code == 0
        assert stdout_json(out)["fold_mse"] == first["fold_mse"]

    def test_urelief_settings_recorded_as_run(self, planted_csv, capsys):
        common = ["--data", str(planted_csv), "--target-column", "target",
                  "--method", "urelief", "--neighbors", "5"]
        code, out, _ = run_cli(capsys, "eval", *common, "--folds", "4",
                               "--top-k", "3")
        assert code == 0
        config = stdout_json(out)["config"]
        assert (config["neighbors"], config["iterations"]) == (5, None)
        # rank runs on the whole table, so it records what that resolves to
        code, out, _ = run_cli(capsys, "rank", *common)
        assert code == 0
        config = stdout_json(out)["config"]
        assert (config["neighbors"], config["iterations"]) == (5, 24)

    def test_eval_requires_target(self, planted_csv, capsys):
        code, _, err = run_cli(capsys, "eval", "--data", str(planted_csv),
                               "--trees", "5")
        assert code == 2
        assert "target" in json.loads(err)["error"]["message"]

    def test_curve_artifact(self, planted_csv, tmp_path, capsys):
        out_dir = tmp_path / "curve"
        code, out, _ = run_cli(
            capsys, "curve", "--data", str(planted_csv), "--target-column",
            "target", "--trees", "5", "--folds", "4", "--out", str(out_dir))
        assert code == 0
        payload = stdout_json(out)
        assert payload["k_values"][-1] == 6
        assert len(payload["mean_mse"]) == len(payload["k_values"])
        assert (out_dir / "toy_genie3_curve_0.json").exists()
        assert (out_dir / "toy_genie3_curve_0_points.csv").exists()

    def test_compare_over_eval_artifacts(self, tmp_path, capsys):
        art = tmp_path / "evals"
        csvs = []
        for seed in (1, 2, 3):
            spec = SynthSpec(m=20, n_informative=2, n_noise=3, clusters=2,
                             separation=6.0, seed=seed, name=f"ds{seed}")
            path, _ = write_planted(spec, tmp_path / "data")
            csvs.append(path)
        for path in csvs:
            for method in ("genie3", "urelief"):
                self.eval_artifact(capsys, path, method, art)
        inputs = sorted(str(p) for p in art.glob("*_eval_0.json"))
        assert len(inputs) == 6
        code, out, _ = run_cli(capsys, "compare", *inputs,
                               "--out", str(tmp_path / "cmp"))
        assert code == 0
        payload = stdout_json(out)
        assert payload["artifact"] == "compare"
        assert sorted(payload["methods"]) == ["genie3", "urelief"]
        assert len(payload["datasets"]) == 3
        assert (tmp_path / "cmp" / "compare.json").exists()
        assert (tmp_path / "cmp" / "compare.csv").exists()

    def test_compare_rejects_ragged_grid(self, planted_csv, tmp_path, capsys):
        art = tmp_path / "evals"
        self.eval_artifact(capsys, planted_csv, "genie3", art)
        self.eval_artifact(capsys, planted_csv, "urelief", art)
        spec = SynthSpec(m=20, n_informative=2, n_noise=3, clusters=2,
                         separation=6.0, seed=4, name="odd")
        odd_csv, _ = write_planted(spec, tmp_path / "data")
        self.eval_artifact(capsys, odd_csv, "genie3", art)
        inputs = sorted(str(p) for p in art.glob("*_eval_0.json"))
        code, _, err = run_cli(capsys, "compare", *inputs)
        assert code == 2
        assert "lacks results" in json.loads(err)["error"]["message"]

    def test_compare_rejects_non_eval_input(self, tmp_path, capsys):
        rogue = tmp_path / "rogue.json"
        rogue.write_text(json.dumps({"artifact": "ranking"}))
        code, _, err = run_cli(capsys, "compare", str(rogue))
        assert code == 2
        assert "not an eval artifact" in json.loads(err)["error"]["message"]


class TestSynthAndAri:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "synth", "--m", "30", "--informative", "2", "--noise",
            "3", "--clusters", "2", "--seed", "6", "--out", str(tmp_path))
        assert code == 0
        payload = stdout_json(out)
        assert payload["artifact"] == "synth"
        assert (tmp_path / "planted_s6.csv").exists()
        assert (tmp_path / "planted_s6_truth.json").exists()

    def test_ari_check(self, planted_csv, tmp_path, capsys):
        out_dir = tmp_path / "ari"
        code, out, _ = run_cli(
            capsys, "ari-check", "--data", str(planted_csv),
            "--target-column", "target", "--runs", "3", "--out", str(out_dir))
        assert code == 0
        payload = stdout_json(out)
        assert -0.5 <= payload["ari_median"] <= 1.0
        assert (out_dir / "toy_ari-check_0.json").exists()

    def test_ari_check_needs_target(self, planted_csv, capsys):
        code, _, err = run_cli(capsys, "ari-check", "--data",
                               str(planted_csv))
        assert code == 2
        assert "target" in json.loads(err)["error"]["message"]


def test_console_script_round_trip(tmp_path):
    # one end-to-end pass through the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "ufrank.cli", "synth", "--m", "12",
         "--informative", "1", "--noise", "1", "--clusters", "2",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "planted_s0.csv").exists()
