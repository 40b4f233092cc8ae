"""The four benchmark workloads and the correctness gate on their outputs.

Each workload is a list of :class:`RunSpec`: one YAML config text plus what
the checker needs to know about the run it describes (horizon, recording
stride, dimension).  Everything is derived from the benchmark seed, and
seed ``DEFAULT_SEED`` reproduces the acceptance-suite configs exactly, so
the acceptance predicates are checked there.

The checker reads only the artifacts a sweep leaves on disk: the five CSVs,
``meta.json`` and the recorded condition report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

#: The seed at which every workload equals the acceptance-suite configs.
DEFAULT_SEED = 0

CSV_ARTIFACTS = ("loss.csv", "regret.csv", "lr_hist.csv", "conditions.csv",
                 "record.csv")

#: Rows of conditions.csv, in order.
CONDITION_KEYS = ("zeta_min", "c2_violation_count", "rho_bounded",
                  "r_ordered", "beta1_bounded", "grad_bound_ok",
                  "diameter_ok", "eta_inverse_bounded")

HYPOTHESIS_KEYS = ("rho_bounded", "r_ordered", "beta1_bounded",
                   "grad_bound_ok", "diameter_ok")


@dataclass(frozen=True)
class RunSpec:
    """One config of a workload and the shape of the run it produces."""

    name: str
    text: str
    problem: str
    optimizer: str
    horizon: int
    stride: int
    dim: int

    @property
    def has_ledger(self) -> bool:
        return self.problem != "mlp"


def _mlp_dim(hidden: Sequence[int]) -> int:
    sizes = (2, *hidden, 2)
    return sum(a * b + b for a, b in zip(sizes, sizes[1:]))


def cycle_stride1(seed: int, smoke: bool = False) -> List[RunSpec]:
    """Criterion-05 trio on the Reddi cycle problem, recorded every step."""
    horizon = 60 if smoke else 30_000
    optimizers = {
        "adam": "{kind: adam, beta1: 0.0, beta2: 0.1}",
        "amsgrad": "{kind: amsgrad, beta1: 0.0, beta2: 0.1}",
        "dstadam": "{kind: dstadam}",
    }
    specs = []
    for kind, opt in optimizers.items():
        name = f"cycle-{kind}"
        text = (f"problem: {{kind: reddi, c: 3.0, seed: {7 + seed}}}\n"
                f"optimizer: {opt}\n"
                f"horizon: {horizon}\n"
                f"stride: 1\n"
                f"name: {name}\n")
        specs.append(RunSpec(name, text, "reddi", kind, horizon, 1, 1))
    return specs


def quadratic_long(seed: int, smoke: bool = False) -> List[RunSpec]:
    """configs/quadratic_dstadam.yaml: d=10, T=100k, stride 100."""
    horizon, stride = (300, 10) if smoke else (100_000, 100)
    text = (f"problem: {{kind: quadratic, dim: 10, seed: {11 + seed}}}\n"
            "optimizer:\n"
            "  kind: dstadam\n"
            "  sqrt_decay: true\n"
            "  schedule:\n"
            "    beta1_kind: geometric\n"
            "    beta1_decay: 0.99\n"
            f"horizon: {horizon}\n"
            f"stride: {stride}\n"
            "name: quadratic-dstadam\n")
    return [RunSpec("quadratic-dstadam", text, "quadratic", "dstadam",
                    horizon, stride, 10)]


def mlp_train(seed: int, smoke: bool = False) -> List[RunSpec]:
    """The four configs/mlp_*.yaml: d=354, 200 epochs of 4 batches."""
    epochs = 2 if smoke else 200
    n_train, batch = 512, 128
    optimizers = {
        "adabound": "{kind: adabound}",
        "adam": "{kind: adam}",
        "dstadam": "\n  kind: dstadam\n  schedule: {r_u: 1.0}",
        "sgdm": "{kind: sgdm, lr: 0.1, momentum: 0.9}",
    }
    specs = []
    for kind, opt in optimizers.items():
        name = f"mlp-{kind}"
        text = (f"problem: {{kind: mlp, seed: {5 + seed}}}\n"
                f"optimizer: {opt}\n"
                f"epochs: {epochs}\n"
                f"batch_size: {batch}\n"
                "stride: 10\n"
                f"name: {name}\n")
        horizon = math.ceil(n_train / batch) * epochs
        specs.append(RunSpec(name, text, "mlp", kind, horizon, 10,
                             _mlp_dim((16, 16))))
    return specs


def grid_sweep(seed: int, smoke: bool = False) -> List[RunSpec]:
    """The criterion-02 grid: 24 short DstAdam runs on three problems."""
    horizon = 20 if smoke else 200
    problems = {
        "quadratic": ("problem: {kind: quadratic, dim: 3, seed: %d}", 3),
        "logistic": ("problem: {kind: logistic, n_samples: 96, dim: 4, "
                     "seed: %d}", 4),
        "mlp": ("problem: {kind: mlp, n_train: 64, n_test: 32, seed: %d, "
                "box_halfwidth: 10.0, hidden: [8]}", _mlp_dim((8,))),
    }
    rate_pairs = [(0.005, 5.0), (0.1, 1.0), (0.5, 0.5), (0.01, 0.1)]
    rhos = [None, 0.9, 0.99]
    specs = []
    i = 0
    for problem, (line, dim) in problems.items():
        for sqrt_decay in (False, True):
            for r_l, r_u in rate_pairs:
                rho = rhos[i % 3]
                rho_part = f"rho: {rho}, " if rho is not None else ""
                name = f"grid-{problem}-r{r_l}-{r_u}-sqrt{int(sqrt_decay)}"
                text = "\n".join([
                    line % (i + 1 + seed),
                    "optimizer:",
                    "  kind: dstadam",
                    f"  sqrt_decay: {str(sqrt_decay).lower()}",
                    f"  schedule: {{{rho_part}r_l: {r_l}, r_u: {r_u}}}",
                    f"horizon: {horizon}",
                    "batch_size: 32",
                    f"name: {name}",
                ]) + "\n"
                specs.append(RunSpec(name, text, problem, "dstadam", horizon,
                                     1, dim))
                i += 1
    return specs


WORKLOADS = {
    "cycle-stride1": cycle_stride1,
    "quadratic-long": quadratic_long,
    "mlp-train": mlp_train,
    "grid-sweep": grid_sweep,
}


def write_configs(specs: Sequence[RunSpec], config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        (config_dir / f"{spec.name}.yaml").write_text(spec.text)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def sampled_steps(horizon: int, stride: int) -> List[int]:
    """Steps that carry a row in the CSVs: every stride, plus 1 and T."""
    return sorted(set(range(stride, horizon + 1, stride)) | {1, horizon})


def find_run_dir(out_root: Path, spec: RunSpec) -> Path:
    """The single `<name>-<config hash>` directory a sweep wrote for spec."""
    matches = [p for p in out_root.glob(f"{spec.name}-*")
               if p.is_dir() and len(p.name) == len(spec.name) + 13]
    if len(matches) != 1:
        raise FileNotFoundError(
            f"expected one run directory for {spec.name}, found {len(matches)}")
    return matches[0]


def _read_rows(path: Path) -> List[List[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_run(run_dir: Path, spec: RunSpec) -> List[str]:
    """Problems with one run's artifacts; an empty list means it passed."""
    errors: List[str] = []
    steps = [str(t) for t in sampled_steps(spec.horizon, spec.stride)]

    loss = _read_rows(run_dir / "loss.csv")
    if [r[0] for r in loss] != steps:
        errors.append(f"loss.csv has {len(loss)} rows, want {len(steps)}")
    if not all(_finite(r[1]) for r in loss):
        errors.append("loss.csv holds a non-finite loss")

    record = _read_rows(run_dir / "record.csv")
    if [r[0] for r in record] != steps:
        errors.append(f"record.csv has {len(record)} rows, want {len(steps)}")
    # the regret column is empty where the problem has no comparator
    if not all(_finite(v) for r in record
               for v in (r[1:] if spec.has_ledger else [r[1], *r[3:]])):
        errors.append("record.csv holds a non-finite value")

    regret = _read_rows(run_dir / "regret.csv")
    want = steps if spec.has_ledger else []
    if [r[0] for r in regret] != want:
        errors.append(f"regret.csv has {len(regret)} rows, want {len(want)}")
    if not all(_finite(v) for r in regret for v in r[1:]):
        errors.append("regret.csv holds a non-finite value")

    hist = _read_rows(run_dir / "lr_hist.csv")
    if [r[0] for r in hist] != steps:
        errors.append(f"lr_hist.csv has {len(hist)} rows, want {len(steps)}")
    bad = [r[0] for r in hist if sum(int(c) for c in r[1:]) != spec.dim]
    if bad:
        errors.append(f"lr_hist.csv rows do not total d={spec.dim} "
                      f"at t={bad[0]} and {len(bad) - 1} more")

    conditions = dict(_read_rows(run_dir / "conditions.csv"))
    if tuple(conditions) != CONDITION_KEYS:
        errors.append(f"conditions.csv keys are {sorted(conditions)}")
    elif (spec.optimizer == "dstadam"
          and conditions["eta_inverse_bounded"] != "true"):
        errors.append("eta_inverse_bounded is not true for a DstAdam run")

    meta = json.loads((run_dir / "meta.json").read_text())
    if meta.get("horizon") != spec.horizon:
        errors.append(f"meta.json horizon {meta.get('horizon')}, "
                      f"want {spec.horizon}")
    for key, value in meta.items():
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"meta.json {key} is not finite")
    return [f"{spec.name}: {e}" for e in errors]


def csv_digests(run_dir: Path) -> Dict[str, str]:
    """SHA-256 of each of the five CSVs, which reruns must reproduce."""
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in CSV_ARTIFACTS}


# ---------------------------------------------------------------------------
# Acceptance predicates, checked at DEFAULT_SEED
# ---------------------------------------------------------------------------

def _meta(run_dirs: Dict[str, Path], name: str) -> dict:
    return json.loads((run_dirs[name] / "meta.json").read_text())


def acceptance_errors(workload: str, run_dirs: Dict[str, Path],
                      thresholds: dict) -> List[str]:
    """The acceptance suite's predicates, evaluated on a sweep's artifacts.

    ``run_dirs`` maps each spec name to its run directory.  The quadratic
    sup-tail is taken over the recorded (stride-100) rows of regret.csv, so
    it can only read lower than the per-step sup the acceptance test uses.
    """
    errors: List[str] = []
    if workload == "cycle-stride1":
        limit = thresholds["reddi_avg_regret_threshold"]
        avg = {}
        for kind in ("adam", "amsgrad", "dstadam"):
            meta = _meta(run_dirs, f"cycle-{kind}")
            avg[kind] = meta["final_regret"] / meta["horizon"]
        if not (avg["adam"] > limit > max(avg["amsgrad"], avg["dstadam"])):
            errors.append(f"cycle separation fails at {limit}: {avg}")
    elif workload == "quadratic-long":
        run_dir = run_dirs["quadratic-dstadam"]
        horizon = _meta(run_dirs, "quadratic-dstadam")["horizon"]
        tail = max(float(r[3]) for r in _read_rows(run_dir / "regret.csv")
                   if int(r[0]) >= horizon // 2)
        limit = thresholds["sqrt_regret_sup_constant"]
        if not tail < limit:
            errors.append(f"quadratic sup tail {tail} >= {limit}")
        conditions = dict(_read_rows(run_dir / "conditions.csv"))
        failing = [k for k in HYPOTHESIS_KEYS if conditions.get(k) != "true"]
        if failing:
            errors.append(f"quadratic hypotheses fail: {failing}")
    elif workload == "mlp-train":
        adam = _meta(run_dirs, "mlp-adam")["train_loss"]
        dst = _meta(run_dirs, "mlp-dstadam")["train_loss"]
        if not dst <= adam:
            errors.append(f"mlp dstadam train loss {dst} > adam {adam}")
    return errors
