"""Config resolution, dotted-flag overrides, and the three CLI verbs."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fedmoe import cli
from fedmoe.config import (ENV_OUTPUT_ROOT, PRESETS, ExperimentConfig,
                           FederationSection, SeedsSection, SparsitySection,
                           parse_config_file)
from fedmoe.data import DataConfig
from fedmoe.errors import ConfigurationError

from oracles import with_overrides

TINY = {
    "data.n": "160", "data.input_dim": "6", "data.classes": "4",
    "backbone.dim": "8", "backbone.seq_len": "4", "backbone.heads": "2",
    "adapter.experts": "4", "adapter.rank": "2", "sparsity.k": "2",
    "federation.clients": "4", "federation.rounds": "1",
    "federation.batch_size": "32",
}


def tiny_flags() -> list[str]:
    return [f"--{k}={v}" for k, v in TINY.items()]


class TestResolution:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.default()
        cfg.validate()
        assert cfg.federation.clients == 4
        assert cfg.federation.lr == 3e-4
        assert cfg.aux.lam == 1e-4

    def test_layer_precedence(self):
        cfg = ExperimentConfig.resolve(
            {"federation.rounds": "5", "federation.lr": "0.001"},
            {"federation.rounds": "7"})
        assert cfg.federation.rounds == 7
        assert cfg.federation.lr == 0.001

    def test_lambda_alias(self):
        cfg = ExperimentConfig.resolve({"aux.lambda": "0.5"})
        assert cfg.aux.lam == 0.5
        with pytest.raises(ConfigurationError, match="aux.lam"):
            ExperimentConfig.resolve({"aux.lam": "0.5"})

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("false", False), ("1", True), ("no", False),
    ])
    def test_bool_coercion(self, raw, expected):
        cfg = ExperimentConfig.resolve({"backbone.trainable_head": raw})
        assert cfg.backbone.trainable_head is expected

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigurationError, match="federation.rounds"):
            ExperimentConfig.resolve({"federation.rounds": "twenty"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="nonsense.key"):
            ExperimentConfig.resolve({"nonsense.key": "1"})

    def test_canonical_roundtrip_and_hash(self):
        cfg = ExperimentConfig.resolve({"federation.lr": "0.001"})
        again = ExperimentConfig.resolve(dict(cfg.to_items()))
        assert again == cfg
        assert again.hash_id() == cfg.hash_id()
        other = with_overrides(cfg, {"federation.lr": "0.002"})
        assert other.hash_id() != cfg.hash_id()

    def test_hash_leaves_out_the_output_root(self):
        default = ExperimentConfig.default()
        elsewhere = ExperimentConfig.resolve({"output.dir": "/tmp/x"})
        assert default.hash_id() == elsewhere.hash_id() == "c607a852c160"
        assert "output.dir = /tmp/x\n" in elsewhere.canonical_text()
        assert elsewhere.canonical_text() != default.canonical_text()

    def test_presets(self):
        cfg = ExperimentConfig.resolve(PRESETS["cifar-like"])
        assert cfg.federation.clients == 10
        assert cfg.data.classes == 10
        assert ExperimentConfig.resolve(PRESETS["agnews-like"]) \
            == ExperimentConfig.default()


class TestValidation:
    @pytest.mark.parametrize("overrides,needle", [
        ({"sparsity.k": "9"}, "sparsity.k"),
        ({"sparsity.eval_k": "12"}, "sparsity.eval_k"),
        ({"federation.clients": "0"}, "federation.clients"),
        ({"federation.rounds": "-1"}, "federation.rounds"),
        ({"data.test_fraction": "1.5"}, "test_fraction"),
        ({"data.source": "parquet"}, "data.source"),
        ({"data.source": "csv"}, "csv_path"),
        ({"adapter.gating_mode": "dense"}, "gating_mode"),
        ({"federation.clients": "2"}, "one_label"),  # 4 classes need 4 clients
        ({"sparsity.mode": "capability", "sparsity.k_high": "9"},
         "sparsity.k_high"),
        ({"backbone.heads": "3"}, "backbone.heads"),
        ({"data.source": "csv", "data.csv_path": "x.csv",
          "data.input_dim": "0"}, "data.input_dim"),
        ({"aux.lambda": "-1"}, "aux.lambda"),
        ({"aux.theta_th": "1.5"}, "aux.theta_th"),
        ({"data.partition": "dirichlet", "data.alpha": "0"}, "data.alpha"),
        ({"aux.lambda": "nan"}, "aux.lambda"),
        ({"federation.lr": "inf"}, "federation.lr"),
        ({"federation.weight_decay": "-inf"}, "federation.weight_decay"),
        ({"data.separation": "NaN"}, "data.separation"),
        ({"data.partition": "dirichlet", "data.alpha": "inf"}, "data.alpha"),
        ({"adapter.gating_mode": "uniform_one"}, "adapter.gating_mode"),
        ({"seeds.run": "-1"}, "seeds.run"),
        ({"seeds.data": "-1"}, "seeds.data"),
        ({"seeds.frozen": "-1"}, "seeds.frozen"),
    ])
    def test_bad_configs_name_the_problem(self, overrides, needle):
        with pytest.raises(ConfigurationError, match=needle):
            ExperimentConfig.resolve(overrides)

    @pytest.mark.parametrize("build,key", [
        (lambda: DataConfig(partition="striped"), "data.partition"),
        (lambda: DataConfig(partition="dirichlet", alpha=0.0), "data.alpha"),
        (lambda: FederationSection(clients=0), "federation.clients"),
        (lambda: SparsitySection(mode="x"), "sparsity.mode"),
        (lambda: SeedsSection(run=-1), "seeds.run"),
    ], ids=["data.partition", "data.alpha", "federation.clients",
            "sparsity.mode", "seeds.run"])
    def test_each_section_checks_its_own_fields(self, build, key):
        with pytest.raises(ConfigurationError, match=key.replace(".", r"\.")):
            build()

    def test_only_the_budgets_of_the_mode_are_checked(self):
        fixed = ExperimentConfig.resolve({"adapter.experts": "2",
                                          "sparsity.k": "1", "aux.lambda": "0"})
        assert (fixed.sparsity.k, fixed.sparsity.k_high) == (1, 4)
        capability = ExperimentConfig.resolve({
            "adapter.experts": "2", "sparsity.mode": "capability",
            "sparsity.k": "5", "sparsity.k_high": "2", "aux.lambda": "0"})
        assert capability.sparsity.k_low == 1
        with pytest.raises(ConfigurationError, match="sparsity.k_low"):
            ExperimentConfig.resolve({"sparsity.mode": "capability",
                                      "sparsity.k_low": "0"})

    def test_threshold_must_exceed_uniform_mass(self):
        with pytest.raises(ConfigurationError, match="theta_th"):
            ExperimentConfig.resolve({"adapter.experts": "4",
                                      "aux.theta_th": "0.25"})
        # with the balance weight off the threshold is inert
        cfg = ExperimentConfig.resolve({"adapter.experts": "4",
                                        "aux.theta_th": "0.25",
                                        "aux.lambda": "0"})
        assert cfg.aux.theta_th == 0.25


class TestBudgets:
    def test_fixed_mode_gives_every_client_k(self):
        spr = SparsitySection(mode="fixed", k=3, k_high=4, k_low=1)
        assert spr.budgets(5) == [3] * 5

    def test_capability_mode_gives_the_leading_clients_k_high(self):
        spr = SparsitySection(mode="capability", k_high=4, k_low=1,
                              high_fraction=0.25)
        assert spr.budgets(8) == [4, 4, 1, 1, 1, 1, 1, 1]
        assert SparsitySection(mode="capability", high_fraction=0.0) \
            .budgets(3) == [1, 1, 1]
        assert SparsitySection(mode="capability", high_fraction=1.0) \
            .budgets(3) == [4, 4, 4]

    def test_half_a_client_rounds_to_even(self):
        # 0.5 * 5 = 2.5 rounds to 2, and 0.5 * 7 = 3.5 to 4
        spr = SparsitySection(mode="capability", k_high=4, k_low=1,
                              high_fraction=0.5)
        assert spr.budgets(5) == [4, 4, 1, 1, 1]
        assert spr.budgets(7) == [4, 4, 4, 4, 1, 1, 1]


class TestConfigFile:
    def test_parse_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nfederation.rounds = 3\n"
                        "aux.lambda = 1e-3\n")
        items = parse_config_file(path)
        assert items == {"federation.rounds": "3", "aux.lambda": "1e-3"}

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("federation.rounds = 3\nbogus = 1\n")
        with pytest.raises(ConfigurationError, match=r"c.txt:2.*bogus"):
            parse_config_file(path)

    def test_key_set_twice_reports_both_lines(self, tmp_path):
        """A file that sets a key twice is an error, not last-wins: the
        message names the file, the key and both lines."""
        path = tmp_path / "c.txt"
        path.write_text("federation.lr = 0.1\n# again\nfederation.lr = 0.2\n")
        with pytest.raises(ConfigurationError,
                           match=r"c.txt:3: key 'federation.lr' set again "
                                 r"\(first on line 1\)"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("federation.rounds 3\n")
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config_file(path)


class TestFlagParsing:
    def test_pair_and_equals_forms(self):
        got = cli.parse_override_flags(
            ["--federation.rounds", "3", "--aux.lambda=1e-5"])
        assert got == {"federation.rounds": "3", "aux.lambda": "1e-5"}

    def test_repeated_flag_keeps_the_last_value(self):
        got = cli.parse_override_flags(
            ["--federation.lr", "0.1", "--federation.lr=0.2"])
        assert got == {"federation.lr": "0.2"}

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigurationError, match="missing a value"):
            cli.parse_override_flags(["--federation.rounds"])

    def test_stray_token_rejected(self):
        with pytest.raises(ConfigurationError, match="unexpected"):
            cli.parse_override_flags(["federation.rounds=3"])


class TestGridAxes:
    def test_single_key_axis(self):
        assert cli.parse_axis("federation.lr=1e-4,3e-4") == [
            {"federation.lr": "1e-4"}, {"federation.lr": "3e-4"}]

    def test_zipped_axis(self):
        assert cli.parse_axis("adapter.rank,adapter.experts=2:8,4:4") == [
            {"adapter.rank": "2", "adapter.experts": "8"},
            {"adapter.rank": "4", "adapter.experts": "4"}]

    @pytest.mark.parametrize("spec", ["norhs", "=1,2", "a.b=", "a,b=1:2,3"])
    def test_malformed_axes_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            cli.parse_axis(spec)


class TestClaimDir:
    def test_suffixes_instead_of_overwriting(self, tmp_path):
        first = cli._claim_dir(tmp_path, "name")
        second = cli._claim_dir(tmp_path, "name")
        third = cli._claim_dir(tmp_path, "name")
        assert first.name == "name"
        assert second.name == "name-1"
        assert third.name == "name-2"
        assert first.is_dir() and second.is_dir() and third.is_dir()


class TestRunCommand:
    def test_run_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path), *tiny_flags()])
        assert code == 0
        out = capsys.readouterr().out
        assert "round 0:" in out and "run dir:" in out
        run_dir = next(tmp_path.iterdir())
        for name in ("config.txt", "metrics.csv", "checkpoint.bin",
                     "metadata.txt"):
            assert (run_dir / name).is_file()

    def test_zero_rounds_run_is_valid(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path),
                         "--federation.rounds=0", *tiny_flags()[:-2]])
        assert code == 0
        run_dir = next(tmp_path.iterdir())
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_unknown_key_exits_one_and_names_it(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path), "--bogus.key", "1"])
        assert code == 1
        assert "bogus.key" in capsys.readouterr().err

    def test_invalid_value_exits_one(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path),
                         "--federation.batch_size", "0", *tiny_flags()[:-1]])
        assert code == 1
        assert "batch_size" in capsys.readouterr().err

    def test_negative_seed_exits_one_and_claims_no_dir(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path / "out"),
                         *tiny_flags(), "--seeds.run", "-1"])
        assert code == 1
        assert "seeds.run must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_run_removes_its_empty_dir(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path / "out"),
                         *tiny_flags(), "--data.n", "8",
                         "--data.partition", "iid", "--federation.clients",
                         "8", "--data.test_fraction", "0.5"])
        assert code == 1
        assert "cannot spread 4 examples over 8 clients" \
            in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_run_keeps_partial_artifacts(self, tmp_path, capsys,
                                                monkeypatch):
        def write_then_fail(cfg, run_dir):
            (run_dir / "partial.txt").write_text("x")
            raise RuntimeError("late failure")

        monkeypatch.setattr(cli, "run_experiment", write_then_fail)
        code = cli.main(["run", "--out", str(tmp_path), *tiny_flags()])
        assert code == 2
        assert "late failure" in capsys.readouterr().err
        assert [p.name for p in tmp_path.glob("*/*")] == ["partial.txt"]

    def test_env_var_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "roots"))
        code = cli.main(["run", *tiny_flags()])
        assert code == 0
        assert any((tmp_path / "roots").iterdir())

    def test_output_dir_key_sits_between_out_and_env_var(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "env"))
        flags = [*tiny_flags(), "--federation.rounds=0",
                 "--output.dir", str(tmp_path / "key")]
        assert cli.main(["run", *flags]) == 0
        assert cli.main(["run", "--out", str(tmp_path / "out"), *flags]) == 0
        assert cli.main(["sweep", *flags]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["key", "out"]
        assert len(list((tmp_path / "key").iterdir())) == 2
        assert len(list((tmp_path / "out").iterdir())) == 1

    def test_config_file_plus_flag_precedence(self, tmp_path, capsys):
        config = tmp_path / "exp.txt"
        config.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()
                                  if k != "federation.rounds")
                          + "federation.rounds = 5\n")
        code = cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path / "out"), "--federation.rounds", "1"])
        assert code == 0
        run_dir = next((tmp_path / "out").iterdir())
        resolved = parse_config_file(run_dir / "config.txt")
        assert resolved["federation.rounds"] == "1"


class TestSweepCommand:
    def test_grid_summary_and_cells(self, tmp_path, capsys):
        code = cli.main(["sweep", "--out", str(tmp_path),
                         "--grid", "federation.lr=0.001,0.003",
                         *tiny_flags()])
        assert code == 0
        sweep_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        with open(sweep_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["federation.lr"] for r in rows] == ["0.001", "0.003"]
        for row in rows:
            assert row["status"] == "ok"
            assert 0.0 <= float(row["final_accuracy"]) <= 1.0
            assert (sweep_dir / f"cell-{row['config_id']}" /
                    "metrics.csv").is_file()

    def test_failed_cell_recorded_sweep_continues(self, tmp_path, capsys):
        code = cli.main(["sweep", "--out", str(tmp_path),
                         "--grid", "sparsity.k=2,9", *tiny_flags()])
        assert code == 0
        sweep_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        with open(sweep_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert rows[1]["final_accuracy"] == ""

    def test_unknown_grid_key_fails_before_any_cell(self, tmp_path, capsys):
        code = cli.main(["sweep", "--out", str(tmp_path),
                         "--grid", "federation.lr=0.001",
                         "--grid", "federation.lrr=1e-4,3e-4", *tiny_flags()])
        assert code == 1
        assert "federation.lrr" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("grid,needle", [
        (["federation.lr=1e-4,3e-4", "federation.lr=1e-3"],
         "'federation.lr' is bound more than once"),
        (["federation.lr,federation.lr=1e-4:3e-4"],
         "'federation.lr' is bound more than once"),
        (["output.dir=a,b"], "output.dir cannot be swept"),
    ], ids=["twice-in-two-axes", "twice-in-one-axis", "output-dir"])
    def test_key_that_cannot_be_swept_fails_before_any_cell(
            self, tmp_path, capsys, grid, needle):
        flags = [arg for axis in grid for arg in ("--grid", axis)]
        code = cli.main(["sweep", "--out", str(tmp_path), *flags,
                         *tiny_flags()])
        assert code == 1
        assert needle in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_empty_grid_writes_header_only(self, tmp_path, capsys):
        code = cli.main(["sweep", "--out", str(tmp_path), *tiny_flags()])
        assert code == 0
        sweep_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        lines = (sweep_dir / "summary.csv").read_text().splitlines()
        assert lines == ["config_id,final_accuracy,final_mean_util_kl,status"]

    def test_zipped_axis_cross_product(self, tmp_path, capsys):
        code = cli.main(["sweep", "--out", str(tmp_path),
                         "--grid", "adapter.rank,adapter.experts=2:4,4:2",
                         "--grid", "federation.lr=0.001,0.003",
                         "--sparsity.k=2", *tiny_flags()[:-6],
                         "--federation.clients=4", "--federation.rounds=1",
                         "--federation.batch_size=32"])
        assert code == 0
        sweep_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        with open(sweep_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {(r["adapter.rank"], r["adapter.experts"]) for r in rows} \
            == {("2", "4"), ("4", "2")}


class TestCompareCommand:
    def run_tiny(self, root, name, rounds):
        flags = dict(TINY)
        flags["federation.rounds"] = str(rounds)
        code = cli.main(["run", "--out", str(root / name),
                         *[f"--{k}={v}" for k, v in flags.items()]])
        assert code == 0
        return next((root / name).iterdir())

    def test_merge_two_runs(self, tmp_path, capsys):
        a = self.run_tiny(tmp_path, "a", rounds=2)
        b = self.run_tiny(tmp_path, "b", rounds=2)
        capsys.readouterr()
        code = cli.main(["compare", str(a), str(b)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4  # 2 rounds x 2 runs
        assert [r[1] for r in rows] == [str(a), str(b), str(a), str(b)]
        assert all(r[4] != "" for r in rows)

    def test_single_run_passthrough(self, tmp_path, capsys):
        a = self.run_tiny(tmp_path, "solo", rounds=1)
        capsys.readouterr()
        code = cli.main(["compare", str(a), "--out",
                         str(tmp_path / "merged.csv")])
        assert code == 0
        with open(tmp_path / "merged.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(a / "metrics.csv", newline="") as fh:
            source = [r for r in csv.DictReader(fh)
                      if r["client_id"] == "global"]
        assert len(rows) == len(source) == 1
        assert rows[0]["accuracy"] == source[0]["accuracy"]

    def test_mismatched_rounds_union_with_warning(self, tmp_path, capsys):
        a = self.run_tiny(tmp_path, "a", rounds=2)
        b = self.run_tiny(tmp_path, "b", rounds=1)
        capsys.readouterr()
        code = cli.main(["compare", str(a), str(b)])
        assert code == 0
        captured = capsys.readouterr()
        assert "different rounds" in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        blank = [r for r in rows if r[0] == "1" and r[1] == str(b)]
        assert blank and blank[0][2:] == ["", "", "", ""]

    def test_runs_sharing_a_basename_are_labelled_by_their_paths(
            self, tmp_path, capsys, monkeypatch):
        """The same run directory name under two roots, as the same sweep
        cell in two sweeps: each row names its run as given."""
        a = self.run_tiny(tmp_path, "s1", rounds=1)
        shutil.copytree(a, tmp_path / "s2" / a.name)
        monkeypatch.chdir(tmp_path)
        given = [f"s1/{a.name}", f"s2/{a.name}"]
        capsys.readouterr()
        assert cli.main(["compare", *given]) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[1] for r in rows] == given
        assert rows[0][2:] == rows[1][2:]

    def test_missing_dir_exits_two(self, tmp_path, capsys):
        code = cli.main(["compare", str(tmp_path / "nope")])
        assert code == 2

    def compare_bad_metrics(self, tmp_path, capsys, text):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text(text)
        assert cli.main(["compare", str(run)]) == 2
        return str(run / "metrics.csv"), capsys.readouterr().err

    def test_compare_names_a_missing_column(self, tmp_path, capsys):
        path, err = self.compare_bad_metrics(
            tmp_path, capsys, "round,task_loss,aux_loss,accuracy,mean_util_kl\n"
                              "0,1.0,0.0,0.5,0.0\n")
        assert f"{path}:1: header lacks client_id" in err

    def test_compare_names_the_line_of_a_bad_round(self, tmp_path, capsys):
        path, err = self.compare_bad_metrics(
            tmp_path, capsys, "round,client_id,task_loss,aux_loss,accuracy,"
                              "mean_util_kl\n0,global,1.0,0.0,0.5,0.0\n"
                              "x,global,0.9,0.0,0.6,0.0\n")
        assert f"{path}:3: round 'x' is not an integer" in err

    def test_compare_rejects_overrides(self, tmp_path, capsys):
        code = cli.main(["compare", str(tmp_path), "--aux.lambda", "1"])
        assert code == 1


def test_module_entrypoint_subprocess(tmp_path):
    # the child finds the package through this checkout's src/, from any cwd
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path)
    result = subprocess.run(
        [sys.executable, "-m", "fedmoe.cli", "run", "--out", str(tmp_path),
         *tiny_flags()],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stderr
    assert "run dir:" in result.stdout


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    result = subprocess.run([sys.executable, "-m", "fedmoe", "--help"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
