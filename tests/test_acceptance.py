"""Acceptance suite: one test per release criterion.

Every test prints its own ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` and in failure output).  Simulation thresholds were fixed
by the recorded oracle run in tools/thresholds.json before these tests
were wired; tolerance constants come straight from the criteria.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from transopt.config import parse_config
from transopt.diagnostics import TheoryParams, bound_corollary1, lemma_a1_holds
from transopt.optim import (Adam, DstAdam, ClippedTransition, FeasibleBox,
                            MomentumSgd, StepConfig, project_box)
from transopt.problems import Mlp, make_logistic, two_cluster_dataset
from transopt.runner import CSV_ARTIFACTS, run_experiment
from transopt.schedule import (BoundFunctionSpec, TransitionSchedule,
                               rho_from_horizon)

THRESHOLDS = json.loads(
    (Path(__file__).parent.parent / "tools" / "thresholds.json").read_text()
)["proposed_thresholds"]


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL  {title}")
                raise
            print(f"[criterion {number:02d}] PASS  {title}")
        return wrapper
    return decorate


@criterion(1, "rho formula reproduces the reference transition factor")
def test_01_rho_formula_value_and_speed():
    value = rho_from_horizon(78200, 1e-8)
    assert value == pytest.approx(0.999764, abs=1e-6)
    best = min(
        _timed(lambda: rho_from_horizon(78200, 1e-8)) for _ in range(5)
    )
    assert best < 1e-3, f"rho_from_horizon took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _a15_configs():
    problems = {
        "quadratic": "problem: {kind: quadratic, dim: 3, seed: %d}",
        "logistic": "problem: {kind: logistic, n_samples: 96, dim: 4, seed: %d}",
        "mlp": "problem: {kind: mlp, n_train: 64, n_test: 32, seed: %d, "
               "box_halfwidth: 10.0, hidden: [8]}",
    }
    rate_pairs = [(0.005, 5.0), (0.1, 1.0), (0.5, 0.5), (0.01, 0.1)]
    rhos = [None, 0.9, 0.99]
    combos = []
    i = 0
    for problem in ("quadratic", "logistic", "mlp"):
        for sqrt_decay in (False, True):
            for r_l, r_u in rate_pairs:
                rho = rhos[i % 3]
                rho_line = f"rho: {rho}, " if rho is not None else ""
                text = "\n".join([
                    problems[problem] % (i + 1),
                    "optimizer:",
                    "  kind: dstadam",
                    f"  sqrt_decay: {str(sqrt_decay).lower()}",
                    f"  schedule: {{{rho_line}r_l: {r_l}, r_u: {r_u}}}",
                    "horizon: 200",
                    "batch_size: 32",
                ])
                combos.append(pytest.param(
                    text, id=f"{problem}-r{r_l}-{r_u}-sqrt{int(sqrt_decay)}"))
                i += 1
    return combos


@pytest.mark.parametrize("config_text", _a15_configs())
@criterion(2, "inverse-rate bound holds on every step of every run")
def test_02_eta_inverse_bound_suite(config_text):
    cfg = parse_config(config_text)
    record = run_experiment(cfg, write_artifacts=False, keep_trajectory=True)
    schedule = TransitionSchedule(
        horizon=record.horizon,
        r_l=cfg.optimizer.schedule.r_l,
        r_u=cfg.optimizer.schedule.r_u,
        rho=cfg.optimizer.schedule.rho,
    )
    cap = 1.0 / (schedule.r_l * (1.0 - schedule.rho))
    worst = max(float(np.max(1.0 / row)) for row in record.rate_rows)
    assert worst <= cap + 1e-12
    assert record.report.eta_inverse_bounded is True


@criterion(3, "rates collapse onto r_l at the end of the reference run")
def test_03_transition_endpoint():
    cfg = parse_config("""
problem: {kind: quadratic, dim: 5, seed: 3}
optimizer:
  kind: dstadam
  schedule: {rho: 0.999764}
horizon: 78200
stride: 100
""")
    record = run_experiment(cfg, write_artifacts=False)
    final = record.final_effective_lr
    assert np.all(final >= 0.99 * 0.005)
    assert np.all(final <= 1.01 * 0.005)
    # every coordinate's final rate lands in the histogram bin holding r_l
    t, counts, under, over = record.histogram.rows[-1]
    assert t == 78200 and under == 0 and over == 0
    edges = record.histogram.edges
    r_l_bin = int(np.searchsorted(edges, 0.005, side="right") - 1)
    assert counts[r_l_bin] == 5


def _paired_quadratic(opt_a, opt_b, dim, steps, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(steps, dim))
    ta = tb = rng.uniform(-0.5, 0.5, size=dim)
    for k in range(steps):
        ta = opt_a.step(ta, ta - centers[k])
        tb = opt_b.step(tb, tb - centers[k])
        yield ta, tb


@criterion(4, "reduction equivalences hold step for step")
def test_04_reduction_equivalences():
    for seed in range(5):
        # (a) all-ones scaling sequence turns the blend into plain Adam
        sched = TransitionSchedule(horizon=100, rho_kind="custom",
                                   rho_sequence=(1.0,) * 100)
        cfg = StepConfig(alpha=0.001, epsilon=1e-8, bias_correction=False)
        dst = DstAdam(4, sched, cfg)
        adam = Adam(4, cfg, beta1=0.9, beta2=0.999)
        for ta, tb in _paired_quadratic(dst, adam, 4, 100, seed):
            np.testing.assert_allclose(ta, tb, rtol=0, atol=1e-12)

        # (b) point bounds turn the clipped stepper into momentum SGD;
        # at momentum 0 the lr is alpha_star verbatim, at momentum 0.9 via
        # the exact EMA = (1-beta1) * heavy-ball identity
        alpha_star = 0.05
        generic0 = ClippedTransition(
            4, BoundFunctionSpec("swats", alpha_star=alpha_star),
            StepConfig(), beta1=0.0)
        sgd0 = MomentumSgd(4, lr=alpha_star, momentum=0.0)
        for ta, tb in _paired_quadratic(generic0, sgd0, 4, 100, seed + 50):
            np.testing.assert_allclose(ta, tb, rtol=0, atol=1e-12)

        generic9 = ClippedTransition(
            4, BoundFunctionSpec("swats", alpha_star=alpha_star),
            StepConfig(), beta1=0.9)
        sgd9 = MomentumSgd(4, lr=alpha_star * (1 - 0.9), momentum=0.9)
        for ta, tb in _paired_quadratic(generic9, sgd9, 4, 100, seed + 100):
            np.testing.assert_allclose(ta, tb, rtol=0, atol=1e-12)


REDDI_RUNS = {
    # Adam/AMSGrad at the non-convergence construction's parameters
    # (beta1=0, beta2=1/(1+C^2)); DSTAdam at its recommended defaults.
    "adam": """
problem: {kind: reddi, c: 3.0, seed: 7}
optimizer: {kind: adam, beta1: 0.0, beta2: 0.1}
horizon: 30000
""",
    "amsgrad": """
problem: {kind: reddi, c: 3.0, seed: 7}
optimizer: {kind: amsgrad, beta1: 0.0, beta2: 0.1}
horizon: 30000
""",
    "dstadam": """
problem: {kind: reddi, c: 3.0, seed: 7}
optimizer: {kind: dstadam}
horizon: 30000
""",
}


@criterion(5, "Adam separates from AMSGrad and DSTAdam on the cycle problem")
def test_05_reddi_separation():
    threshold = THRESHOLDS["reddi_avg_regret_threshold"]
    started = time.perf_counter()
    averages = {}
    for kind, text in REDDI_RUNS.items():
        record = run_experiment(parse_config(text), write_artifacts=False)
        averages[kind] = record.final_regret / record.horizon
    elapsed = time.perf_counter() - started
    assert averages["adam"] > threshold, averages
    assert averages["amsgrad"] < threshold, averages
    assert averages["dstadam"] < threshold, averages
    assert elapsed < 10.0, f"separation runs took {elapsed:.1f}s"


@criterion(6, "regret grows no faster than sqrt(T) and the bound covers it")
def test_06_sqrt_t_regret_and_corollary_bound():
    started = time.perf_counter()
    cfg = parse_config("""
problem: {kind: quadratic, dim: 10, seed: 11}
optimizer:
  kind: dstadam
  sqrt_decay: true
  schedule:
    beta1_kind: geometric
    beta1_decay: 0.99
horizon: 100000
stride: 100
""")
    record = run_experiment(cfg, write_artifacts=False, keep_trajectory=True)
    sup_tail = record.sup_sqrt_regret_tail()
    assert sup_tail < THRESHOLDS["sqrt_regret_sup_constant"]
    assert record.report.all_hypotheses_hold
    params = TheoryParams(
        d_inf=4.0, g_inf=3.0, beta1=0.9,
        rho=rho_from_horizon(record.horizon), r_l=0.005, r_u=5.0,
        alpha=0.001, lam=0.99,
    )
    bound = bound_corollary1(record.grads, record.rate_rows[-1], params,
                             record.report.zeta_min)
    assert bound is not None and bound >= record.final_regret
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sqrt-regret run took {elapsed:.1f}s"


@criterion(7, "prefix-sum inequality survives ten thousand random vectors")
def test_07_lemma_a1_sweep():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(10_000):
        length = int(rng.integers(1, 1001))
        scale = 10.0 ** rng.uniform(-3, 3)
        values = rng.uniform(0.0, scale, size=length)
        if rng.uniform() < 0.1:
            values[: int(rng.integers(0, length))] = 0.0
        if not lemma_a1_holds(values, tol=1e-12):
            failures += 1
    assert failures == 0


@criterion(8, "weighted projection is nonexpansive on a thousand instances")
def test_08_projection_nonexpansive_sweep():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        lo = rng.uniform(-3, 0, size=d)
        hi = lo + rng.uniform(0.05, 4, size=d)
        box = FeasibleBox(lo, hi)
        metric = 10.0 ** rng.uniform(-2, 2, size=d)
        z1 = rng.uniform(-8, 8, size=d)
        z2 = rng.uniform(-8, 8, size=d)
        u1 = project_box(z1, box, metric=metric)
        u2 = project_box(z2, box, metric=metric)
        lhs = np.linalg.norm(np.sqrt(metric) * (u1 - u2))
        rhs = np.linalg.norm(np.sqrt(metric) * (z1 - z2))
        if lhs > rhs + 1e-12:
            failures += 1
    assert failures == 0


@criterion(9, "analytic gradients match central finite differences")
def test_09_gradient_audit():
    net = Mlp((2, 16, 16, 2))
    x, y = two_cluster_dataset(32, seed=1)
    rng = np.random.default_rng(9)
    for _ in range(20):
        theta = rng.normal(scale=0.6, size=net.n_params)
        grad = net.backward(theta, x, y)
        fd = np.zeros_like(theta)
        for i in range(len(theta)):
            h = 1e-5 * (1 + abs(theta[i]))
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (net.forward(up, x, y)[0]
                     - net.forward(down, x, y)[0]) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
        assert rel < 1e-5

    problem = make_logistic(120, 5, seed=4, batch_size=40)
    for k in range(20):
        theta = rng.uniform(-2, 2, size=5)
        t = int(rng.integers(1, 10))
        grad = problem.grad_at(t, theta)
        fd = np.zeros(5)
        for i in range(5):
            h = 1e-5 * (1 + abs(theta[i]))
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (problem.loss_at(t, up) - problem.loss_at(t, down)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
        assert rel < 1e-5


MLP_ADAM = """
problem: {kind: mlp, seed: 5}
optimizer: {kind: adam}
epochs: 200
batch_size: 128
stride: 10
"""

MLP_DSTADAM = """
problem: {kind: mlp, seed: 5}
optimizer:
  kind: dstadam
  schedule: {r_u: 1.0}
epochs: 200
batch_size: 128
stride: 10
"""


@criterion(10, "transition beats Adam on the desk-scale training analogue")
def test_10_mlp_desk_scale_comparison():
    started = time.perf_counter()
    adam = run_experiment(parse_config(MLP_ADAM), write_artifacts=False)
    dst = run_experiment(parse_config(MLP_DSTADAM), write_artifacts=False)
    assert dst.train_loss <= adam.train_loss, \
        (dst.train_loss, adam.train_loss)
    assert dst.test_accuracy >= adam.test_accuracy - \
        THRESHOLDS["mlp_accuracy_margin"], \
        (dst.test_accuracy, adam.test_accuracy)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"mlp comparison took {elapsed:.1f}s"


DETERMINISM_CONFIGS = [
    """
problem: {kind: quadratic, dim: 3, seed: 7}
optimizer: {kind: dstadam}
horizon: 1000
""",
    MLP_DSTADAM,
    REDDI_RUNS["adam"].replace("30000", "2000"),
]


@criterion(11, "identical configs yield byte-identical CSV artifacts")
def test_11_determinism(tmp_path):
    for index, text in enumerate(DETERMINISM_CONFIGS):
        cfg = parse_config(text)
        first = run_experiment(cfg, out_root=str(tmp_path / f"a{index}"))
        second = run_experiment(cfg, out_root=str(tmp_path / f"b{index}"))
        for name in CSV_ARTIFACTS:
            a = (first.run_dir / name).read_bytes()
            b = (second.run_dir / name).read_bytes()
            assert a == b, f"{name} differs for config {index}"


#: One problem line per kind, formatted with a replica's seed and box;
#: shapes small enough that minibatches cross epochs with a partial last
#: batch.
BATCH_PROBLEMS = {
    "reddi": "problem: {{kind: reddi, c: {c}, seed: {seed}}}",
    "quadratic": "problem: {{kind: quadratic, dim: 3, seed: {seed}, "
                 "box_halfwidth: {box}}}",
    "logistic": "problem: {{kind: logistic, n_samples: 30, dim: 3, "
                "seed: {seed}, box_halfwidth: {box}}}",
    "mlp": "problem: {{kind: mlp, n_train: 24, n_test: 8, hidden: [4], "
           "seed: {seed}, box_halfwidth: {box}}}",
}

#: One optimizer line per kind, formatted with a replica index k; every
#: replica of a group differs in the fields a batch takes as columns.
BATCH_OPTIMIZERS = {
    "sgdm": "{{kind: sgdm, lr: {lr}, momentum: {mom}}}",
    "adam": "{{kind: adam, alpha: {alpha}, beta1: {b1}, beta2: {b2}}}",
    "amsgrad": "{{kind: amsgrad, alpha: {alpha}, beta1: {b1}}}",
    "adabound": "{{kind: adabound, alpha: {alpha}, sqrt_decay: {sqrt}, "
                "bounds: {{alpha_star: {astar}}}}}",
    "generic-swats": "{{kind: generic, beta2: {b2}, "
                     "bounds: {{kind: swats, alpha_star: {astar}}}}}",
    "generic-adadb": "{{kind: generic, sqrt_decay: {sqrt}, bounds: "
                     "{{kind: adadb, alpha_star: {astar}, gamma: {gamma}}}}}",
    "generic-lu": "{{kind: generic, alpha: {alpha}, "
                  "bounds: {{kind: lu, alpha_star: {astar}}}}}",
    "dstadam": "{{kind: dstadam, alpha: {alpha}, sqrt_decay: {sqrt}, "
               "schedule: {{{rho}r_l: {r_l}, r_u: {r_u}}}}}",
    "dstadam-geometric": "{{kind: dstadam, beta1: {b1}, schedule: "
                         "{{beta1_kind: geometric, beta1_decay: {decay}}}}}",
}


def _batch_configs():
    """name -> config text: one group of three replicas per problem and
    optimizer kind."""
    out = {}
    for problem, line in BATCH_PROBLEMS.items():
        for optimizer, opt in BATCH_OPTIMIZERS.items():
            for k in range(3):
                values = dict(
                    seed=3 + 5 * k, c=3.0 + k, box=2.0 + k, lr=0.05 * (k + 1),
                    mom=0.5 + 0.2 * k, alpha=0.01 * (k + 1), b1=0.9 - 0.1 * k,
                    b2=0.999 - 0.1 * k, sqrt=str(k % 2 == 1).lower(),
                    astar=0.1 / (k + 1), gamma=1.0 + k, r_l=0.005 * (k + 1),
                    r_u=5.0 - k, rho=["", "rho: 0.9, ", "rho: 0.99, "][k],
                    decay=0.99 - 0.1 * k)
                name = f"b-{problem}-{optimizer}-{k}"
                out[name] = "\n".join([
                    line.format(**values),
                    "optimizer: " + opt.format(**values),
                    "horizon: 13",
                    "batch_size: 8",
                    "stride: 2",
                    f"name: {name}",
                ]) + "\n"
    return out


def _artifacts(root):
    """Run-directory name -> {file: contents}, meta.json without its
    wall clock."""
    out = {}
    for run_dir in root.iterdir():
        files = {f.name: f.read_bytes() for f in run_dir.iterdir()}
        meta = json.loads(files.pop("meta.json"))
        del meta["wall_clock_seconds"]
        out[run_dir.name] = dict(files, meta=meta)
    return out


@criterion(11, "replica k of a batch writes its lone run's bytes")
def test_11_batched_replicas_match_lone_runs(tmp_path):
    from transopt.cli import main as cli_main
    from transopt.runner import group_configs

    texts = _batch_configs()
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for name, text in texts.items():
        (config_dir / f"{name}.yaml").write_text(text)
    cfgs = [parse_config(text) for text in texts.values()]
    # one loop per problem, holding every optimizer's three replicas
    groups = group_configs(cfgs)
    assert len(groups) == len(BATCH_PROBLEMS)
    assert all(len(group) == 3 * len(BATCH_OPTIMIZERS) for group in groups)

    lone = tmp_path / "lone"
    for cfg in cfgs:
        run_experiment(cfg, out_root=str(lone))
    assert cli_main(["sweep", str(config_dir), "--out",
                     str(tmp_path / "serial")]) == 0
    assert cli_main(["sweep", str(config_dir), "--out",
                     str(tmp_path / "jobs"), "--jobs", "2"]) == 0
    want = _artifacts(lone)
    assert len(want) == len(texts)
    for name, files in want.items():
        assert set(files) == {*CSV_ARTIFACTS, "config.yaml", "meta"}, name
    for out in ("serial", "jobs"):
        got = _artifacts(tmp_path / out)
        assert sorted(got) == sorted(want), out
        for run_dir, files in want.items():
            assert got[run_dir] == files, (out, run_dir)
