import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from ufrank import (EXTRA_TREES, EnsembleConfig, SynthSpec, build, cli,
                    load_csv, make_ranker, write_planted)
from ufrank.cli import main
from ufrank.rankers import METHODS


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


def error_record(result, exit_code, kind):
    """The message of a failed run that wrote nothing to stdout and
    exactly one JSON error record to stderr."""
    code, out, err = result
    assert (code, out) == (exit_code, "")
    assert err.count("\n") == 1
    record = json.loads(err)["error"]
    assert (record["exit_code"], record["kind"]) == (exit_code, kind)
    return record["message"]


def eval_record(path, dataset, method, mse):
    path.write_text(json.dumps({"artifact": "eval", "dataset": {"name": dataset},
                                "method": method, "mse": mse}))
    return str(path)


def text_target_csv(tmp_path):
    """4 rows of two numeric columns and a text column y: x, y, z, x."""
    path = tmp_path / "text.csv"
    path.write_text("a,b,y\n1,4,x\n2,3,y\n3,2,z\n4,1,x\n")
    return str(path)


def overflow_csv(tmp_path, magnitude=1e160):
    """12 rows: column a alternates +-magnitude, so every value is finite
    and passes ingestion, but a's variance (and at 1e308 its span)
    overflows; columns b and c are N(0, 1)."""
    huge = tmp_path / "huge.csv"
    rng = np.random.default_rng(0)
    huge.write_text("\n".join(
        ["a,b,c"] + [f"{(-1) ** i * magnitude!r},{rng.normal()!r},"
                     f"{rng.normal()!r}" for i in range(12)]) + "\n")
    return huge


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

    @pytest.mark.parametrize("content, message", [
        (b"{", "config file is not valid JSON"),
        (b"[1, 2]", "config file must hold a JSON object of flag values"),
        (b'{"trees": "many"}', "config option 'trees': invalid literal"),
        (b'{"seed": "\xff"}', "cannot read config file"),
    ], ids=["not-json", "not-object", "rejected-value", "not-utf8"])
    def test_config_file_errors_exit_1(self, planted_csv, tmp_path, capsys,
                                       content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        got = error_record(run_cli(capsys, "rank", "--data", str(planted_csv),
                                   "--config", str(cfg)), 1, "usage")
        assert got.startswith(message)

    def test_config_file_may_start_with_a_byte_order_mark(
            self, planted_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 9}).encode())
        code, out, err = run_cli(capsys, "rank", "--data", str(planted_csv),
                                 "--target-column", "target", "--trees", "2",
                                 "--config", str(cfg))
        assert (code, err) == (0, "")
        assert stdout_json(out)["config"]["seed"] == 9

    def test_config_flag_forms(self, planted_csv, tmp_path, capsys):
        got = error_record(run_cli(capsys, "rank", "--data", str(planted_csv),
                                   "--config"), 1, "usage")
        assert got == "--config requires a file path"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        code, out, _ = run_cli(capsys, "rank", "--data", str(planted_csv),
                               "--target-column", "target", "--trees", "2",
                               f"--config={cfg}")
        assert code == 0
        assert stdout_json(out)["config"]["seed"] == 9

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


class TestSettingsHaveOneHome:
    """A method's defaults are its config's, and the settings its ranker
    reports are its keys in every artifact's config block."""

    def test_flag_defaults_are_the_config_and_make_ranker_defaults(self):
        _, commands = cli.build_parser()
        params = inspect.signature(make_ranker).parameters
        for method in METHODS:
            ranker = make_ranker(method)
            # make_ranker's defaults build the config's defaults
            assert ranker.config == type(ranker.config)()
            given = {key: value for key, value in ranker.settings.items()
                     if key != "method"}
            for command in ("rank", "eval", "curve"):
                assert {key: commands[command].get_default(key)
                        for key in given} == given
            assert {key: params[key].default for key in given} == given

    @pytest.mark.parametrize("method", METHODS)
    def test_config_blocks_are_the_ranker_settings_plus_the_flags(
            self, planted_csv, capsys, method):
        settings = make_ranker(method, trees=2).settings
        base = ["--data", str(planted_csv), "--target-column", "target",
                "--method", method, "--trees", "2"]
        own = {"command", "data", "target_column"}
        for command, flags, extra in (
                ("rank", [], set()),
                ("eval", ["--folds", "2", "--top-k", "1"], {"folds", "top_k"}),
                ("curve", ["--folds", "2"], {"folds"})):
            code, out, _ = run_cli(capsys, command, *base, *flags)
            assert code == 0
            config = stdout_json(out)["config"]
            assert set(config) == set(settings) | own | extra
            if command != "rank":  # rank records URelief's K and I resolved
                assert {key: config[key] for key in settings} == settings

    def test_compare_has_no_alpha_option(self, tmp_path, capsys):
        inputs = [eval_record(tmp_path / f"{ds}_{meth}.json", ds, meth, mse)
                  for ds in ("a", "b")
                  for meth, mse in (("genie3", 0.25), ("urelief", 0.5))]
        got = error_record(run_cli(capsys, "compare", *inputs, "--alpha",
                                   "0.05"), 1, "usage")
        assert "--alpha" in got
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.05}))
        got = error_record(run_cli(capsys, "compare", *inputs, "--config",
                                   str(cfg)), 1, "usage")
        assert got == "config file sets unknown option 'alpha'"
        code, out, _ = run_cli(capsys, "compare", *inputs)
        assert code == 0
        payload = stdout_json(out)
        assert payload["config"] == {"command": "compare", "alpha": 0.05}
        assert payload["alpha"] == 0.05


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

    @pytest.mark.parametrize("content", [
        None, b"a,b\n1,\xff\n", b"a\n" + b"1" * (131072 + 1) + b"\n",
    ], ids=["directory", "not-utf8", "field-over-limit"])
    @pytest.mark.parametrize("command", ["rank", "eval", "curve", "ari-check"])
    def test_unreadable_data_exits_2(self, tmp_path, capsys, command, content):
        data = tmp_path / "t.csv"
        if content is None:
            data.mkdir()
        else:
            data.write_bytes(content)
        got = error_record(run_cli(capsys, command, "--data", str(data),
                                   "--target-column", "a"), 2, "data")
        assert got.startswith(f"cannot read {data}")

    @pytest.mark.parametrize("flag, value", [("--trees", "0"),
                                             ("--seed", "-1")])
    def test_out_of_range_flags_exit_1(self, planted_csv, capsys, flag, value):
        got = error_record(run_cli(capsys, "rank", "--data", str(planted_csv),
                                   flag, value), 1, "usage")
        assert flag in got

    @pytest.mark.parametrize("flags", [
        ("--trees", "1000000000000000"),
        ("--method", "urelief", "--iterations", "1000000000000000"),
    ], ids=["trees", "iterations"])
    def test_setting_too_large_to_allocate_exits_3(self, planted_csv, tmp_path,
                                                   capsys, flags):
        # 10**15 int64 draws or tree ids: numpy refuses the allocation at
        # once, before any work or artifact
        out = tmp_path / "out"
        got = error_record(run_cli(capsys, "rank", "--data", str(planted_csv),
                                   "--workers", "1", "--out", str(out),
                                   *flags), 3, "computation")
        assert got.startswith("out of memory: ")
        assert not out.exists()

    def test_inconsistent_synth_flags_exit_1(self, tmp_path, capsys):
        got = error_record(run_cli(capsys, "synth", "--clusters", "1",
                                   "--out", str(tmp_path)), 1, "usage")
        assert "two clusters" in got

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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_importance_exits_3(self, tmp_path, capsys):
        # column a's rf-score is NaN
        code, out, err = run_cli(capsys, "rank", "--data",
                                 str(overflow_csv(tmp_path)),
                                 "--method", "rf-score", "--trees", "4")
        assert code == 3
        assert out == ""
        record = json.loads(err)["error"]
        assert record["kind"] == "computation"
        assert "not finite" in record["message"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_column_does_not_block_splits(self, tmp_path, capsys):
        # column a's weight in h is 1/inf = 0, and the finite columns must
        # still split every tree
        huge = overflow_csv(tmp_path)
        e = build(load_csv(huge), EnsembleConfig(EXTRA_TREES, n_trees=4))
        assert all(flat.attr.size > 1 for flat in e.flats)
        code, out, err = run_cli(capsys, "rank", "--data", str(huge),
                                 "--method", "genie3", "--trees", "4")
        assert (code, err) == (0, "")
        importance = [row["importance"] for row in stdout_json(out)["ranking"]]
        assert max(importance) > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude, failing", [
        (1e160, {"rf-score"}),
        (1e308, {"rf-score", "urelief"}),
    ], ids=["1e160", "1e308"])
    @pytest.mark.parametrize("method",
                             ["genie3", "symbolic", "rf-score", "urelief"])
    def test_overflow_leaves_stderr_clean(self, tmp_path, capsys, magnitude,
                                          failing, method):
        # a run either succeeds with nothing on stderr or fails with
        # exactly one JSON error record, never with a numpy warning
        code, out, err = run_cli(capsys, "rank", "--data",
                                 str(overflow_csv(tmp_path, magnitude)),
                                 "--method", method, "--trees", "4",
                                 "--workers", "1")
        if method in failing:
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"]["kind"] == "computation"
        else:
            assert (code, err) == (0, "")
            assert stdout_json(out)["artifact"] == "ranking"


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude, failing", [
        (1e160, set()),
        (1e308, {"urelief"}),
    ], ids=["1e160", "1e308"])
    @pytest.mark.parametrize("method", ["urelief", "genie3"])
    @pytest.mark.parametrize("command, extra", [
        ("eval", ("--top-k", "2")),
        ("curve", ()),
    ], ids=["eval", "curve"])
    def test_overflow_leaves_eval_and_curve_stderr_clean(
            self, tmp_path, capsys, magnitude, failing, method, command,
            extra):
        # the 1NN scoring keeps column a, whose squares overflow
        code, out, err = run_cli(capsys, command, "--data",
                                 str(overflow_csv(tmp_path, magnitude)),
                                 "--target-column", "c", "--method", method,
                                 "--folds", "3", "--trees", "4",
                                 "--workers", "1", "--out",
                                 str(tmp_path / "art"), *extra)
        if method in failing:
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"]["kind"] == "computation"
        else:
            assert (code, err) == (0, "")
            assert stdout_json(out)["artifact"] == command


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, extra", [
        ("eval", ("--top-k", "1")),
        ("curve", ()),
    ], ids=["eval", "curve"])
    def test_overflowing_target_exits_3(self, tmp_path, capsys, command,
                                        extra):
        # the target a alternates +-1e160, so its squared errors overflow;
        # the artifact would hold a non-finite MSE
        got = error_record(run_cli(capsys, command, "--data",
                                   str(overflow_csv(tmp_path)),
                                   "--target-column", "a", "--folds", "3",
                                   "--trees", "4", "--workers", "1", *extra),
                           3, "computation")
        assert "MSE is not finite" in got

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("magnitude", [1e160, 1e308],
                             ids=["1e160", "1e308"])
    def test_overflowing_kmeans_seeding_exits_3(self, tmp_path, capsys,
                                                magnitude, workers):
        # the target c gives k = 12 clusters; column a's squared distances
        # overflow, so k-means++ has no draw probabilities
        got = error_record(run_cli(capsys, "ari-check", "--data",
                                   str(overflow_csv(tmp_path, magnitude)),
                                   "--target-column", "c", "--workers",
                                   workers), 3, "computation")
        assert "overflow" in got

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude", [1e160, 1e308],
                             ids=["1e160", "1e308"])
    def test_one_cluster_on_an_overflowing_table_succeeds(
            self, tmp_path, capsys, magnitude):
        # k = 1 draws no seed; its inf inertia is not reported
        code, out, err = run_cli(capsys, "ari-check", "--data",
                                 str(overflow_csv(tmp_path, magnitude)),
                                 "--target-column", "c", "--classes", "1")
        assert (code, err) == (0, "")
        assert stdout_json(out)["ari_median"] == 0.0


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

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--top-k", "1"]), ("curve", [])])
    def test_text_target_is_a_data_error(self, tmp_path, capsys, command,
                                         flags):
        got = error_record(run_cli(capsys, command, "--data",
                                   text_target_csv(tmp_path),
                                   "--target-column", "y", "--folds", "2",
                                   *flags), 2, "data")
        assert "needs a numeric target" in got

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


    @pytest.mark.parametrize("content, message", [
        (b"[1, 2]", "is not an eval artifact"),
        (b'{"artifact": "eval", "method": "genie3", "mse": 0.5}',
         "is not an eval artifact"),
        (b'{"artifact": "eval", "dataset": {"name": "a"}, "mse": 0.5}',
         "is not an eval artifact"),
        (b'{"artifact": "eval", "dataset": {"name": "a"}, "method": "genie3",'
         b' "mse": "low"}', "is not an eval artifact"),
        (b'{"artifact": "eval", "dataset": {"name": "a"}, "method": "genie3",'
         b' "mse": 1' + b"0" * 400 + b"}", "is not an eval artifact"),
        (b'{"artifact": "eval", "dataset": {"name": "\xff"}}', "cannot read"),
        (None, "cannot read"),
    ], ids=["non-object", "no-dataset", "no-method", "mse-not-a-number",
            "mse-beyond-float", "not-utf8", "unreadable"])
    def test_compare_rejects_malformed_input(self, tmp_path, capsys, content,
                                             message):
        rogue = tmp_path / "rogue.json"
        if content is not None:
            rogue.write_bytes(content)
        good = eval_record(tmp_path / "good.json", "a", "urelief", 0.25)
        got = error_record(run_cli(capsys, "compare", good, str(rogue)),
                           2, "data")
        assert message in got

    def test_compare_reads_an_artifact_with_a_byte_order_mark(
            self, tmp_path, capsys):
        inputs = [eval_record(tmp_path / f"{ds}_{meth}.json", ds, meth, mse)
                  for ds in ("a", "b")
                  for meth, mse in (("genie3", 0.25), ("urelief", 0.5))]
        first = tmp_path / "a_genie3.json"
        first.write_bytes(b"\xef\xbb\xbf" + first.read_bytes())
        code, out, err = run_cli(capsys, "compare", *inputs)
        assert (code, err) == (0, "")
        payload = stdout_json(out)
        assert (payload["methods"], payload["datasets"]) == (
            ["genie3", "urelief"], ["a", "b"])

    def test_compare_rejects_a_duplicate_pair(self, tmp_path, capsys):
        inputs = [eval_record(tmp_path / f"{i}.json", "a", "genie3", 0.5)
                  for i in range(2)]
        got = error_record(run_cli(capsys, "compare", *inputs), 2, "data")
        assert got == "duplicate result for a/genie3"

    def test_compare_of_concordant_results_is_strict_json(self, tmp_path,
                                                          capsys):
        # genie3 wins on both datasets, so the F statistic is unbounded
        inputs = [eval_record(tmp_path / f"{ds}_{meth}.json", ds, meth, mse)
                  for ds in ("a", "b")
                  for meth, mse in (("genie3", 0.25), ("urelief", 0.5))]
        code, out, err = run_cli(capsys, "compare", *inputs,
                                 "--out", str(tmp_path / "cmp"))
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        for text in (out, (tmp_path / "cmp" / "compare.json").read_text()):
            payload = json.loads(text, parse_constant=reject)
            assert payload["iman_davenport_f"] is None
            assert payload["iman_davenport_p"] == 0.0


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

    def test_ari_check_takes_text_labels(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "ari-check", "--data",
                                 text_target_csv(tmp_path), "--target-column",
                                 "y", "--runs", "2")
        assert (code, err) == (0, "")
        assert -1.0 <= stdout_json(out)["ari_median"] <= 1.0

    def test_ari_check_needs_target(self, planted_csv, capsys):
        code, _, err = run_cli(capsys, "ari-check", "--data",
                               str(planted_csv))
        assert code == 2
        assert "target" in json.loads(err)["error"]["message"]


class TestOutputPaths:
    """Every command writes its files under --out before its JSON to
    stdout, so an --out it cannot write is one usage error, exit 1, that
    names the path, with nothing on stdout."""

    def argv(self, command, csv_path, tmp_path):
        if command == "compare":
            return ["compare"] + [
                eval_record(tmp_path / f"{ds}_{meth}.json", ds, meth, mse)
                for ds in ("a", "b")
                for meth, mse in (("genie3", 0.25), ("urelief", 0.5))]
        if command == "synth":
            return ["synth", "--m", "12", "--informative", "1", "--noise",
                    "1", "--clusters", "2"]
        flags = {"rank": ["--trees", "2"],
                 "eval": ["--trees", "2", "--folds", "2", "--top-k", "1"],
                 "curve": ["--trees", "2", "--folds", "2"],
                 "ari-check": ["--runs", "2"]}[command]
        return [command, "--data", str(csv_path), "--target-column",
                "target", *flags]

    @pytest.mark.parametrize("command", ["rank", "eval", "curve", "compare",
                                         "ari-check", "synth"])
    def test_out_naming_a_file_is_a_usage_error(self, planted_csv, tmp_path,
                                                capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        got = error_record(run_cli(capsys, *self.argv(command, planted_csv,
                                                      tmp_path),
                                   "--out", str(taken)), 1, "usage")
        assert str(taken) in got
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command, mirror", [
        ("rank", "toy_genie3_rank_0.csv"),
        ("curve", "toy_genie3_curve_0_points.csv"),
        ("compare", "compare.csv")])
    def test_a_directory_in_place_of_the_mirror_is_a_usage_error(
            self, planted_csv, tmp_path, capsys, command, mirror):
        out_dir = tmp_path / "art"
        (out_dir / mirror).mkdir(parents=True)
        got = error_record(run_cli(capsys, *self.argv(command, planted_csv,
                                                      tmp_path),
                                   "--out", str(out_dir)), 1, "usage")
        assert str(out_dir / mirror) in got

    @pytest.mark.parametrize("command", ["rank", "curve", "compare"])
    def test_stdout_is_the_json_file_written(self, planted_csv, tmp_path,
                                             capsys, command):
        out_dir = tmp_path / "art"
        code, out, err = run_cli(capsys, *self.argv(command, planted_csv,
                                                    tmp_path),
                                 "--out", str(out_dir))
        assert (code, err) == (0, "")
        written = sorted(p.name for p in out_dir.iterdir())
        assert len(written) == 2  # the JSON and its CSV mirror
        json_file = next(p for p in out_dir.iterdir() if p.suffix == ".json")
        assert json_file.read_text(encoding="utf-8") == out


class TestWorkersDefault:
    """--workers defaults to the cores this process may run on."""

    def test_default_is_the_affinity_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        _, commands = cli.build_parser()
        assert {commands[c].get_default("workers")
                for c in ("rank", "eval", "curve", "ari-check")} == {1}

    def test_default_is_the_cpu_count_without_an_affinity(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        _, commands = cli.build_parser()
        assert commands["rank"].get_default("workers") == 3


def test_console_script_round_trip(tmp_path):
    # one end-to-end pass through the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "ufrank.cli", "synth", "--m", "12",
         "--informative", "1", "--noise", "1", "--clusters", "2",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "planted_s0.csv").exists()
