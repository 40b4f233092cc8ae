import hashlib
import json
import math

import numpy as np
import pytest

from transopt.cli import main as cli_main
from transopt import config as config_module
from transopt.config import parse_config, serialize_config
from transopt.errors import ComparisonError, ConfigError, DomainError
from transopt.problems import QuadraticTracking
from transopt.runner import (CSV_ARTIFACTS, build_problem, compare_csv,
                             compare_records, compare_run_dirs, read_conditions,
                             resolve_horizon, run_experiment)
from transopt import runner


def quadratic_cfg(optimizer="dstadam", horizon=300, seed=7, extra=""):
    return parse_config(f"""
problem:
  kind: quadratic
  dim: 3
  seed: {seed}
optimizer:
  kind: {optimizer}
{extra}horizon: {horizon}
""")


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        record = run_experiment(quadratic_cfg(horizon=50),
                                out_root=str(tmp_path))
        for name in CSV_ARTIFACTS:
            assert (record.run_dir / name).exists(), name
        assert (record.run_dir / "config.yaml").exists()
        assert (record.run_dir / "meta.json").exists()

    def test_byte_identical_rerun(self, tmp_path):
        cfg = quadratic_cfg(horizon=200)
        first = run_experiment(cfg, out_root=str(tmp_path / "a"))
        second = run_experiment(cfg, out_root=str(tmp_path / "b"))
        for name in CSV_ARTIFACTS:
            assert (first.run_dir / name).read_bytes() == \
                (second.run_dir / name).read_bytes(), name

    def test_regret_recorded_and_bounded_rates(self, tmp_path):
        record = run_experiment(quadratic_cfg(horizon=200),
                                out_root=str(tmp_path))
        assert record.final_regret is not None
        assert record.report.eta_inverse_bounded is True
        assert record.report.grad_bound_ok is True
        assert record.report.diameter_ok is True

    def test_env_var_overrides_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRANSOPT_OUT", str(tmp_path / "env-root"))
        record = run_experiment(quadratic_cfg(horizon=20))
        assert record.run_dir.parent == tmp_path / "env-root"

    def test_config_serialized_once_and_hashed_as_written(self, tmp_path,
                                                          monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return serialize_config(cfg)

        monkeypatch.setattr(config_module, "serialize_config", counting)
        monkeypatch.setattr(runner, "serialize_config", counting)
        record = run_experiment(quadratic_cfg(horizon=20),
                                out_root=str(tmp_path))
        assert len(calls) == 1
        text = (record.run_dir / "config.yaml").read_bytes()
        digest = hashlib.sha256(text).hexdigest()[:12]
        assert record.run_dir.name == f"quadratic-dstadam-{digest}"

    def test_in_memory_run_skips_disk(self):
        record = run_experiment(quadratic_cfg(horizon=20),
                                write_artifacts=False)
        assert record.run_dir is None
        assert len(record.losses) == 20

    def test_stride_sampling_keeps_endpoints(self, tmp_path):
        cfg = parse_config("""
problem: {kind: quadratic, dim: 2, seed: 1}
optimizer: {kind: adam}
horizon: 103
stride: 25
""")
        record = run_experiment(cfg, out_root=str(tmp_path))
        lines = (record.run_dir / "loss.csv").read_text().strip().splitlines()
        ts = [int(line.split(",")[0]) for line in lines[1:]]
        assert ts[0] == 1 and ts[-1] == 103 and 25 in ts

    def test_epochs_derive_horizon(self):
        cfg = parse_config("""
problem: {kind: logistic, n_samples: 100, dim: 3, seed: 2}
optimizer: {kind: adam}
epochs: 3
batch_size: 32
""")
        record = run_experiment(cfg, write_artifacts=False)
        assert record.horizon == math.ceil(100 / 32) * 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_loss_aborts_with_step_index(self):
        cfg = parse_config("""
problem: {kind: mlp, n_train: 32, n_test: 16, seed: 1}
optimizer: {kind: sgdm, lr: 1.0e200, momentum: 0.0}
horizon: 50
batch_size: 32
""")
        with pytest.raises(DomainError, match="step 2"):
            run_experiment(cfg, write_artifacts=False)

    def test_nan_gradient_aborts_with_step_and_coordinate(self, monkeypatch):
        class NanAtStep(QuadraticTracking):
            def loss_and_grad(self, t, theta):
                loss, g = super().loss_and_grad(t, theta)
                if t == 7:
                    g[1] = math.nan
                return loss, g

        def build_nan_problem(cfg):
            p = build_problem(cfg)
            return NanAtStep(p.centers, p.box)

        monkeypatch.setattr(runner, "build_problem", build_nan_problem)
        with pytest.raises(DomainError, match="step 7, coordinate 1"):
            run_experiment(quadratic_cfg(horizon=20), write_artifacts=False)

    def test_rate_rows_fill_a_t_by_d_array(self):
        record = run_experiment(quadratic_cfg(horizon=40),
                                write_artifacts=False)
        assert record.rate_rows.shape == (40, 3)
        assert record.rate_rows.dtype == np.float64
        np.testing.assert_array_equal(record.rate_rows[-1],
                                      list(record.rate_rows)[-1])

    def test_short_custom_sequence_fails_before_stepping(self):
        cfg = parse_config("""
problem: {kind: quadratic, dim: 2, seed: 1}
optimizer:
  kind: dstadam
  schedule:
    rho_kind: custom
    rho_sequence: [0.5, 0.5]
horizon: 10
""")
        with pytest.raises(ConfigError, match="schedule"):
            run_experiment(cfg, write_artifacts=False)

    def test_mlp_run_reports_accuracy(self):
        cfg = parse_config("""
problem: {kind: mlp, n_train: 64, n_test: 32, seed: 5}
optimizer: {kind: adam}
epochs: 3
batch_size: 32
""")
        record = run_experiment(cfg, write_artifacts=False)
        assert record.final_regret is None
        assert 0.0 <= record.test_accuracy <= 1.0
        assert record.train_loss is not None


#: SHA-256 of each CSV artifact.  The first two, a 2,000-step stride-1
#: cycle-problem Adam run and the criterion-11 quadratic, were recorded
#: with the per-row writer the block writer replaced; the last two, a
#: short MLP DstAdam run and a short logistic run that both cross epoch
#: boundaries, with separate loss and gradient oracle calls per step.
GOLDEN_DIGESTS = {
    """
problem: {kind: reddi, c: 3.0, seed: 7}
optimizer: {kind: adam, beta1: 0.0, beta2: 0.1}
horizon: 2000
""": {
        "loss.csv": "aed00c120b1ec617e9a5f5b1d0d05dcdaf1f2b3cd3d51b58941080a59893d643",
        "regret.csv": "8334ef2f1a70b1a673105086e8a738d95feb13134ad51c2ade57a99cce5d9d78",
        "lr_hist.csv": "6c78b29d817172ff98b484c3a615863cc8d4b67d67318de469ee6c52769d1fa4",
        "conditions.csv": "e3ef2d6438727b2f921c5a90034ddaf2572ba891b20f11f6c15b38631b018a1d",
        "record.csv": "c91571695ab7e32c702e134119c94b22a56be768a7bb75ecfe430474b13ec0ed",
    },
    """
problem: {kind: quadratic, dim: 3, seed: 7}
optimizer: {kind: dstadam}
horizon: 1000
""": {
        "loss.csv": "0247506669dca55ba23a1e67eea11f57c237e7f214a20b76a49c3a1482fb74f7",
        "regret.csv": "f92bb1b2255a08479724d754ec9079ccb13b6bddf4891106e32e420ff1a42f31",
        "lr_hist.csv": "54afea6da869b3bff20cddab1ac867ec61aa3940377f3f057739212df0028b67",
        "conditions.csv": "a7e05321c93a27ff1be4f8a990d91ac1406aa20ee3aef64f1e31e9476fc1291d",
        "record.csv": "5912b3d5440da3bd1959d8cb6cfc8ef0e143d87d76c5ae4f6cd906da06158bee",
    },
    """
problem: {kind: mlp, n_train: 96, n_test: 32, seed: 3}
optimizer: {kind: dstadam, schedule: {r_u: 1.0}}
epochs: 4
batch_size: 32
stride: 2
""": {
        "loss.csv": "e9dab1c29dfb70eeeee62cde460ad8c17e58e2a5a7589e98b155d8daf0045334",
        "regret.csv": "3277260660ec1a60cf0244dddd4f44bcef31203947cc2e8ab5da3970fa3c0ccd",
        "lr_hist.csv": "e19f28bdce7526e56826202f18733092f1403bc78f7b175ab8966d70233604a4",
        "conditions.csv": "9cb4272d57bdff7d45af3da195806388c2d9212baad7d8505ea4a6854602ca6e",
        "record.csv": "118946081dae66b2b4482469d0c33750ec2b43e158fe1a950910fd54e719ef1c",
    },
    """
problem: {kind: logistic, n_samples: 100, dim: 4, seed: 2}
optimizer: {kind: adabound}
epochs: 5
batch_size: 32
""": {
        "loss.csv": "fba99f235fc5462a96ca13284f46904f228a4e296085c0e6fd4bca5927a4cd23",
        "regret.csv": "fa9e4db7c515def0c4e9091d5d2bdbee4fcdcb6a2a27c21c0c143ce98e208b21",
        "lr_hist.csv": "7f41137d2f40623ee8458ea61e9f8497e1232bae3b3d4d097b4f49d142f75129",
        "conditions.csv": "2b0fec426469e66a6d32594514098e1d839862ec3e544fda1ab28bdbb959e467",
        "record.csv": "0a99ce478b6b530507b45362ff6b7571ff0be9f58dcb4446f81b9af82ab6a838",
    },
}


@pytest.mark.parametrize("text", list(GOLDEN_DIGESTS),
                         ids=["reddi-adam", "quadratic-dstadam", "mlp-dstadam",
                              "logistic-adabound"])
def test_artifacts_match_golden_digests(text, tmp_path):
    record = run_experiment(parse_config(text), out_root=str(tmp_path))
    got = {name: hashlib.sha256((record.run_dir / name).read_bytes())
           .hexdigest() for name in CSV_ARTIFACTS}
    assert got == GOLDEN_DIGESTS[text]


class TestResolveHorizon:
    def test_passthrough(self):
        assert resolve_horizon(quadratic_cfg(horizon=42), None) == 42

    def test_ceil_division(self):
        cfg = parse_config("""
problem: {kind: logistic, n_samples: 130, dim: 2, seed: 1}
optimizer: {kind: adam}
epochs: 2
batch_size: 64
""")
        assert resolve_horizon(cfg, 130) == math.ceil(130 / 64) * 2


class TestCompare:
    def run_pair(self, tmp_path, kinds=("adam", "dstadam"), horizon=150):
        records = []
        for kind in kinds:
            extra = "  bias_correction: false\n" if kind != "sgdm" else ""
            cfg = quadratic_cfg(optimizer=kind, horizon=horizon, extra=extra)
            records.append(run_experiment(cfg, out_root=str(tmp_path)))
        return records

    def test_four_optimizer_rows_share_problem(self, tmp_path):
        records = self.run_pair(
            tmp_path, kinds=("sgdm", "adam", "adabound", "dstadam"))
        rows = compare_records(records)
        assert [r["optimizer"] for r in rows] == \
            ["sgdm", "adam", "adabound", "dstadam"]
        assert all(r["final_regret"] is not None for r in rows)

    def test_identical_runs_identical_rows(self, tmp_path):
        cfg = quadratic_cfg(horizon=100)
        a = run_experiment(cfg, out_root=str(tmp_path / "x"))
        b = run_experiment(cfg, out_root=str(tmp_path / "y"))
        rows = compare_records([a, b])
        assert rows[0] == rows[1]

    def test_scaling_one_matches_adam_rows(self, tmp_path):
        horizon = 150
        adam_cfg = quadratic_cfg("adam", horizon=horizon,
                                 extra="  bias_correction: false\n")
        ones = "[" + ", ".join(["1.0"] * horizon) + "]"
        dst_cfg = parse_config(f"""
problem:
  kind: quadratic
  dim: 3
  seed: 7
optimizer:
  kind: dstadam
  schedule:
    rho_kind: custom
    rho_sequence: {ones}
horizon: {horizon}
""")
        a = run_experiment(adam_cfg, write_artifacts=False)
        b = run_experiment(dst_cfg, write_artifacts=False)
        assert b.final_loss == pytest.approx(a.final_loss, abs=1e-12)
        assert b.final_regret == pytest.approx(a.final_regret, abs=1e-12)

    def test_mixed_problems_rejected(self, tmp_path):
        a = run_experiment(quadratic_cfg(horizon=30),
                           out_root=str(tmp_path))
        reddi = parse_config("""
problem: {kind: reddi, seed: 7}
optimizer: {kind: adam}
horizon: 30
""")
        b = run_experiment(reddi, out_root=str(tmp_path))
        with pytest.raises(ComparisonError):
            compare_records([a, b])
        with pytest.raises(ComparisonError):
            compare_run_dirs([a.run_dir, b.run_dir])

    def test_compare_from_disk_matches_memory(self, tmp_path):
        records = self.run_pair(tmp_path)
        from_disk = compare_run_dirs([r.run_dir for r in records])
        in_memory = compare_records(records)
        for d, m in zip(from_disk, in_memory):
            assert d["optimizer"] == m["optimizer"]
            assert d["final_loss"] == pytest.approx(m["final_loss"],
                                                    rel=1e-15)

    def test_csv_rendering(self, tmp_path):
        rows = compare_records(self.run_pair(tmp_path, horizon=60))
        text = compare_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "optimizer,final_loss,final_regret," \
            "test_accuracy,sup_sqrt_regret"
        assert len(lines) == 3


class TestConditionsFile:
    def test_read_back(self, tmp_path):
        record = run_experiment(quadratic_cfg(horizon=80),
                                out_root=str(tmp_path))
        conditions = read_conditions(record.run_dir)
        assert conditions["eta_inverse_bounded"] == "true"
        assert conditions["rho_bounded"] == "true"
        assert float(conditions["zeta_min"]) > 0


class TestCli:
    def write_cfg(self, tmp_path, name="exp.yaml", optimizer="dstadam",
                  horizon=60):
        path = tmp_path / name
        path.write_text(f"""
problem: {{kind: quadratic, dim: 2, seed: 3}}
optimizer: {{kind: {optimizer}}}
horizon: {horizon}
""")
        return path

    def test_run_and_check_conditions(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(cfg_path), "--out", str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        assert cli_main(["check-conditions", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "eta_inverse_bounded" in out

    def test_compare_subcommand(self, tmp_path, capsys):
        out_root = tmp_path / "runs"
        for opt in ("adam", "dstadam"):
            cfg = self.write_cfg(tmp_path, name=f"{opt}.yaml", optimizer=opt)
            assert cli_main(["run", str(cfg), "--out", str(out_root)]) == 0
        dirs = sorted(str(p) for p in out_root.iterdir())
        capsys.readouterr()   # drop the run-command chatter
        assert cli_main(["compare", *dirs]) == 0
        out = capsys.readouterr().out
        assert out.startswith("optimizer,")

    def test_sweep_runs_every_config_in_parallel(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        self.write_cfg(sweep_dir, name="a.yaml", optimizer="adam")
        self.write_cfg(sweep_dir, name="b.yaml", optimizer="sgdm")
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(sweep_dir), "--out", str(out_root),
                         "--jobs", "2"]) == 0
        assert len(list(out_root.iterdir())) == 2

    def test_seed_flag_changes_run_dir(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out_root = tmp_path / "runs"
        cli_main(["run", str(cfg_path), "--out", str(out_root)])
        cli_main(["run", str(cfg_path), "--out", str(out_root),
                  "--seed", "99"])
        assert len(list(out_root.iterdir())) == 2

    def test_bad_config_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {kind: quadratic}\nwrong_key: 1\nhorizon: 5\n")
        assert cli_main(["run", str(path)]) == 2
        assert "wrong_key" in capsys.readouterr().err

    def test_repeats_make_distinct_runs(self, tmp_path):
        cfg_path = tmp_path / "rep.yaml"
        cfg_path.write_text("""
problem: {kind: quadratic, dim: 2, seed: 3}
optimizer: {kind: adam}
horizon: 30
repeats: 3
""")
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(cfg_path), "--out", str(out_root)]) == 0
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 3
        seeds = {json.loads((d / "meta.json").read_text())["seed"]
                 for d in run_dirs}
        assert seeds == {3, 4, 5}
