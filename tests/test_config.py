import re

import pytest
import yaml

from transopt.cli import main as cli_main
from transopt.config import (config_hash, parse_config, serialize_config,
                             with_overrides)
from transopt.errors import ConfigError
from transopt.runner import build_schedule
from transopt.schedule import rho_from_horizon

MINIMAL = """
problem:
  kind: quadratic
optimizer:
  kind: dstadam
horizon: 1000
"""


class TestDefaults:
    def test_minimal_config_fills_reference_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.optimizer.alpha == 0.001
        assert cfg.optimizer.beta1 == 0.9
        assert cfg.optimizer.beta2 == 0.999
        assert cfg.batch_size == 128
        assert cfg.optimizer.schedule.r_u == 5.0
        assert cfg.optimizer.schedule.r_l == 0.005
        assert cfg.optimizer.lr == 0.1            # sgdm default
        assert cfg.optimizer.bounds.alpha_star == 0.1

    def test_bias_correction_defaults_per_kind(self):
        adam = parse_config(MINIMAL.replace("dstadam", "adam"))
        dst = parse_config(MINIMAL)
        assert adam.optimizer.bias_correction_effective is True
        assert dst.optimizer.bias_correction_effective is False

    def test_rho_autofill_from_horizon(self):
        cfg = parse_config(MINIMAL)
        sched = build_schedule(cfg, 78200)
        assert sched.rho == pytest.approx(rho_from_horizon(78200), rel=1e-15)
        assert sched.rho == pytest.approx(0.999764, abs=1e-6)


class TestValidation:
    def test_inverted_rates_rejected(self):
        text = """
problem: {kind: quadratic}
optimizer:
  kind: dstadam
  schedule: {r_l: 5, r_u: 0.005}
horizon: 100
"""
        with pytest.raises(ConfigError, match="r_l"):
            parse_config(text)

    @pytest.mark.parametrize("key, value", [
        ("r_u", ".inf"), ("r_l", ".inf"), ("r_l", ".nan"), ("r_u", "-.inf")])
    def test_a_non_finite_schedule_rate_names_its_key(self, key, value):
        text = MINIMAL.replace("kind: dstadam", "kind: dstadam\n  schedule: "
                               f"{{{key}: {value}}}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(
            f"optimizer.schedule.{key}: must be finite, got ")

    @pytest.mark.parametrize("schedule, message", [
        ("{rho: 1.5}", "rho must lie in (0, 1), got 1.5"),
        ("{rho_kind: constant, rho: 0.0}", "rho must lie in (0, 1), got 0.0"),
        ("{rho_kind: custom}", "custom rho_kind requires rho_sequence"),
        ("{rho_kind: custom, rho_sequence: [0.5, 1.5]}",
         "custom rho entries must lie in [0, 1]"),
        ("{beta1_kind: geometric}",
         "geometric beta1 requires beta1_decay in (0, 1), got None"),
        ("{beta1_kind: geometric, beta1_decay: 1.0}",
         "geometric beta1 requires beta1_decay in (0, 1), got 1.0"),
    ])
    def test_a_bad_schedule_value_fails_at_parse(self, schedule, message):
        text = MINIMAL.replace("kind: dstadam",
                               f"kind: dstadam\n  schedule: {schedule}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"optimizer.schedule: {message}"

    def test_a_bad_schedule_value_stops_a_sweep_before_any_run(
            self, tmp_path, capsys):
        # the good config's loop would run first
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        (sweep_dir / "1-good.yaml").write_text(
            "name: good\nproblem: {kind: reddi}\noptimizer: {kind: adam}\n"
            "horizon: 50\n")
        (sweep_dir / "2-bad-rho.yaml").write_text(
            "name: bad-rho\nproblem: {kind: quadratic}\n"
            "optimizer: {kind: dstadam, schedule: {rho: 1.5}}\nhorizon: 50\n")
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(sweep_dir), "--out", str(out_root)]) == 2
        assert capsys.readouterr().err == \
            "error: optimizer.schedule: rho must lie in (0, 1), got 1.5\n"
        assert not out_root.exists()

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="optimizer.turbo"):
            parse_config(MINIMAL.replace("kind: dstadam",
                                         "kind: dstadam\n  turbo: 1"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="gpu"):
            parse_config(MINIMAL + "\ngpu: true\n")

    def test_unknown_problem_kind(self):
        with pytest.raises(ConfigError, match="problem.kind"):
            parse_config(MINIMAL.replace("quadratic", "rosenbrock"))

    def test_horizon_or_epochs_required(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config("problem: {kind: quadratic}\noptimizer: {kind: adam}")

    def test_horizon_and_epochs_exclusive(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(MINIMAL + "\nepochs: 5\n")

    def test_epochs_need_a_dataset(self):
        text = MINIMAL.replace("horizon: 1000", "epochs: 5")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(text)

    def test_bad_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("problem: [unclosed")

    @pytest.mark.parametrize("kind", ["adam", "amsgrad", "sgdm"])
    def test_sqrt_decay_rejected_for_baselines(self, kind):
        text = MINIMAL.replace("kind: dstadam",
                               f"kind: {kind}\n  sqrt_decay: true")
        with pytest.raises(ConfigError, match=r"^optimizer\.sqrt_decay: "):
            parse_config(text)

    @pytest.mark.parametrize("kind", ["dstadam", "adabound", "generic"])
    def test_sqrt_decay_accepted_for_transitions(self, kind):
        text = MINIMAL.replace("kind: dstadam",
                               f"kind: {kind}\n  sqrt_decay: true")
        assert parse_config(text).optimizer.sqrt_decay is True

    @pytest.mark.parametrize("field, value", [
        ("lr", "-1.0"), ("lr", "0.0"), ("lr", ".nan"), ("lr", ".inf"),
        ("momentum", ".nan"), ("momentum", "1.0"), ("momentum", "-0.1"),
        ("alpha", ".nan"), ("alpha", ".inf"), ("alpha", "0.0"),
        ("epsilon", ".nan"), ("epsilon", ".inf"), ("epsilon", "-1.0e-8"),
        ("bounds.alpha_star", ".nan"), ("bounds.alpha_star", ".inf"),
        ("bounds.gamma", ".nan"), ("bounds.gamma", "-1.0"),
    ])
    def test_a_bad_optimizer_value_names_its_field(self, field, value):
        section, _, key = field.rpartition(".")
        line = (f"{section}: {{{key}: {value}}}" if section
                else f"{key}: {value}")
        text = MINIMAL.replace("kind: dstadam", f"kind: sgdm\n  {line}")
        with pytest.raises(ConfigError,
                           match=rf"^optimizer\.{field}: must "):
            parse_config(text)

    def test_adadb_bounds_need_gamma(self):
        text = MINIMAL.replace("kind: dstadam",
                               "kind: generic\n  bounds: {kind: adadb}")
        with pytest.raises(ConfigError,
                           match=r"^optimizer\.bounds\.gamma: the adadb "):
            parse_config(text)
        # the other bounds and kinds read no gamma
        for kind, bound in (("generic", "swats"), ("adabound", "adadb")):
            parse_config(MINIMAL.replace(
                "kind: dstadam", f"kind: {kind}\n  bounds: {{kind: {bound}}}"))

    @pytest.mark.parametrize("kind, field, value", [
        ("quadratic", "box_halfwidth", ".nan"),
        ("quadratic", "box_halfwidth", ".inf"),
        ("mlp", "box_halfwidth", "0.0"),
        ("logistic", "box_halfwidth", "-1.0"),
        ("reddi", "c", ".nan"), ("reddi", "c", ".inf"), ("reddi", "c", "1.0"),
        ("quadratic", "c", ".nan"),
        ("quadratic", "dim", "0"), ("logistic", "dim", "-2"),
        ("logistic", "n_samples", "0"), ("mlp", "n_train", "0"),
        ("mlp", "n_test", "0"), ("mlp", "hidden", "[0]"),
        ("mlp", "hidden", "[16, -1]"), ("logistic", "seed", "-1"),
    ])
    def test_a_bad_problem_value_names_its_field(self, kind, field, value):
        text = MINIMAL.replace("kind: quadratic",
                               f"kind: {kind}\n  {field}: {value}")
        with pytest.raises(ConfigError, match=rf"^problem\.{field}: must "):
            parse_config(text)

    @pytest.mark.parametrize("line", ["alpha: .nan", "lr: -1.0",
                                      "momentum: .nan",
                                      "bounds: {kind: adadb, gamma: .nan}",
                                      "bounds: {kind: adadb}"])
    def test_run_rejects_a_bad_value_before_any_step(self, line, tmp_path,
                                                     capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace(
            "kind: dstadam", f"kind: generic\n  {line}"))
        assert cli_main(["run", str(path), "--out",
                         str(tmp_path / "runs")]) == 2
        field = line.split(":")[0]
        assert capsys.readouterr().err.startswith(f"error: optimizer.{field}")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind, line", [("quadratic", "dim: 0"),
                                            ("mlp", "n_test: 0"),
                                            ("mlp", "hidden: [0]")])
    def test_run_rejects_a_bad_problem_value(self, kind, line, tmp_path,
                                             capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace("kind: quadratic",
                                        f"kind: {kind}\n  {line}"))
        assert cli_main(["run", str(path), "--out",
                         str(tmp_path / "runs")]) == 2
        field = line.split(":")[0]
        assert capsys.readouterr().err.startswith(f"error: problem.{field}")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name", ["../escaped/x", "a/b", "x/", ".",
                                      ".."])
    def test_a_name_must_not_leave_the_output_root(self, name):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"name: {name!r}\n")
        assert str(err.value) == \
            f"name: must be a file name, not a path, got {name!r}"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_a_path_name_writes_nothing(self, command, tmp_path, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        path = config_dir / "exp.yaml"
        path.write_text(MINIMAL + "name: ../escaped/x\n")
        out_root = tmp_path / "nm" / "runs"
        target = path if command == "run" else config_dir
        assert cli_main([command, str(target), "--out", str(out_root)]) == 2
        assert capsys.readouterr().err == ("error: name: must be a file "
                                           "name, not a path, got "
                                           "'../escaped/x'\n")
        assert not (tmp_path / "nm").exists()

    @pytest.mark.parametrize("key, line", [
        # a YAML boolean is not a number
        ("horizon", "horizon: true"),
        ("problem.seed", "problem: {kind: quadratic, seed: true}"),
        ("optimizer.alpha", "optimizer: {kind: dstadam, alpha: true}"),
        # an integer field's value past the largest double
        ("horizon", "horizon: 1e400"),
        ("problem.seed", "problem: {kind: quadratic, seed: .inf}"),
        # a string field's value that is not a string
        ("out_dir", "out_dir: [a]"),
        ("name", "name: 5"),
        # each item of a tuple field has the item's type
        ("problem.hidden", "problem: {kind: mlp, hidden: [2.5]}"),
        ("problem.hidden", "problem: {kind: mlp, hidden: [a, 2]}"),
    ])
    def test_a_wrongly_typed_value_names_its_key(self, key, line, tmp_path,
                                                 capsys):
        # line takes the place of MINIMAL's entry of its key
        entries = {"problem": "problem: {kind: quadratic}",
                   "optimizer": "optimizer: {kind: dstadam}",
                   "horizon": "horizon: 1000"}
        entries[line.split(":")[0]] = line
        text = "\n".join(entries.values()) + "\n"
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}\b"):
            parse_config(text)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert cli_main(["run", str(path), "--out",
                         str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and err.count("\n") == 1, err
        assert not (tmp_path / "runs").exists()

    def test_numeric_text_still_parses(self):
        cfg = parse_config(MINIMAL.replace("kind: quadratic",
                                           "kind: quadratic\n  seed: 1e3")
                           + "stride: 1.0\n")
        assert (cfg.problem.seed, cfg.stride) == (1000, 1)
        assert type(cfg.problem.seed) is int and type(cfg.stride) is int

    def test_run_rejects_a_negative_seed_flag(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(MINIMAL)
        assert cli_main(["run", str(path), "--seed", "-1", "--out",
                         str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == \
            "error: problem.seed: must be >= 0, got -1\n"
        assert not (tmp_path / "runs").exists()


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_with_every_section(self):
        text = """
problem:
  kind: mlp
  seed: 3
  hidden: [8, 8]
optimizer:
  kind: generic
  sqrt_decay: true
  bounds:
    kind: lu
    alpha_star: 0.2
epochs: 2
batch_size: 32
stride: 4
name: full
"""
        cfg = parse_config(text)
        assert cfg == parse_config(serialize_config(cfg))
        assert cfg.problem.hidden == (8, 8)

    def test_hash_tracks_content(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL.replace("1000", "1001"))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(parse_config(serialize_config(a)))


class TestOverrides:
    def test_seed_override(self):
        cfg = parse_config(MINIMAL)
        assert with_overrides(cfg, seed=9).problem.seed == 9
        assert with_overrides(cfg).problem.seed == cfg.problem.seed

    def test_out_and_stride_override(self):
        cfg = parse_config(MINIMAL)
        out = with_overrides(cfg, stride=10)
        assert out.out_dir == cfg.out_dir and out.stride == 10


def _workload_texts():
    """Every config text of the benchmark's four workloads, seeds 0 and 3."""
    import importlib.util
    import sys
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return [pytest.param(run.text, id=f"{run.name}-seed{seed}")
            for make in workloads.WORKLOADS.values()
            for seed in (0, 3) for run in make(seed)]


def _config_texts():
    from pathlib import Path
    configs = Path(__file__).resolve().parent.parent / "configs"
    return ([pytest.param(p.read_text(), id=p.name)
             for p in sorted(configs.glob("*.yaml"))] + _workload_texts())


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="pyyaml was built without libyaml")
class TestLibyaml:
    """libyaml's loader and dumper, which config uses when present, read
    and write what the pure-Python classes do."""

    @pytest.mark.parametrize("text", _config_texts())
    def test_same_dicts_and_bytes(self, text):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == \
            yaml.load(text, Loader=yaml.SafeLoader)
        cfg = parse_config(text)
        data = yaml.safe_load(serialize_config(cfg))
        python = yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=True,
                           default_flow_style=False)
        assert serialize_config(cfg) == python
        assert yaml.load(python, Loader=yaml.CSafeLoader) == \
            yaml.load(python, Loader=yaml.SafeLoader)
        assert parse_config(python) == cfg
