"""MSE training with Adam, early stopping, and metric evaluation.

The loss is the mean squared error of denormalized predictions against
targets on the dataset's own scale. Validation MSE drives early
stopping; the checkpoint returned is always the best-validation one.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import model as md
from .data import WindowDataset
from .errors import ConfigError, DataError, GraphError, ShapeError


# ---------------------------------------------------------------------------
# Metrics


def _paired(pred, target) -> tuple[np.ndarray, np.ndarray]:
    a = pred.data if isinstance(pred, ad.Tensor) else np.asarray(pred, dtype=np.float64)
    b = target.data if isinstance(target, ad.Tensor) else np.asarray(target, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"metric operands differ in shape: {a.shape} vs {b.shape}")
    return a, b


def mse(pred, target) -> float:
    a, b = _paired(pred, target)
    return float(np.mean((a - b) ** 2))


def mae(pred, target) -> float:
    a, b = _paired(pred, target)
    return float(np.mean(np.abs(a - b)))


def mse_loss(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    """Differentiable mean squared error over all elements."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"loss operands differ in shape: {pred.shape} vs {target.shape}")
    err = ad.sub(pred, ad.Tensor(target))
    return ad.mul(err, err).mean()


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Moment estimates keyed by parameter name."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: list[ad.Parameter], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    correct1 = 1.0 - state.beta1**state.t
    correct2 = 1.0 - state.beta2**state.t
    for p in params:
        if not p.trainable:
            continue
        if p.name not in grads:
            raise GraphError(f"no gradient recorded for parameter {p.name!r}")
        g = grads[p.name]
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[p.name]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[p.name] = m
        state.v[p.name] = v
        step = state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)
        p.data = p.data - step


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. ``max_norm <= 0`` disables clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0.0 and norm > max_norm:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 30
    patience: int = 5
    batch: int = 32
    seed: int = 0
    clip: float = 5.0

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.patience < 1 or self.batch < 1:
            raise ConfigError(f"invalid training config: {self}")


@dataclass
class TrainReport:
    train_losses: list
    val_mse: list
    val_mae: list
    best_epoch: int
    best_val_mse: float
    early_stopped: bool
    epochs_run: int
    wall_time_sec: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def predict_split(
    model: md.SdgfModel,
    dataset: WindowDataset,
    split: str,
    batch: int = 32,
    inspect: Callable[[dict], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecasts, targets, and window starts for one split, in order.

    ``inspect``, if given, receives each batch's ``forward_with_details``
    dict from the same forward pass that made its forecasts.
    """
    starts = dataset.split_starts(split)
    preds = []
    targets = []
    with ad.no_grad():
        for i in range(0, len(starts), batch):
            chunk = starts[i : i + batch]
            inputs, want = dataset.batch(chunk)
            pred, details = md.forward_with_details(ad.Tensor(inputs), model)
            if inspect:
                inspect(details)
            preds.append(pred.data)
            targets.append(want)
    if not preds:
        raise DataError(f"split {split!r} has no windows")
    return np.concatenate(preds), np.concatenate(targets), starts


def evaluate(
    model: md.SdgfModel, dataset: WindowDataset, split: str = "test", batch: int = 32
) -> tuple[float, float]:
    """(MSE, MAE) of the model on one split."""
    preds, targets, _ = predict_split(model, dataset, split, batch)
    return mse(preds, targets), mae(preds, targets)


def repeat_last_metrics(dataset: WindowDataset, split: str = "test") -> tuple[float, float]:
    """Naive baseline: hold the last observed row flat over the horizon."""
    starts = dataset.split_starts(split)
    if len(starts) == 0:
        raise DataError(f"split {split!r} has no windows")
    inputs, targets = dataset.batch(starts)
    preds = np.repeat(inputs[:, -1:, :], dataset.horizon, axis=1)
    return mse(preds, targets), mae(preds, targets)


def train(
    model: md.SdgfModel,
    dataset: WindowDataset,
    cfg: TrainConfig,
    extra: dict | None = None,
) -> tuple[TrainReport, bytes]:
    """Fit the model; returns the report and the best-validation checkpoint.

    ``extra`` is stored verbatim in every checkpoint written (the CLI
    keeps the dataset scaler there so evaluation can reproduce scaling).
    """
    began = time.perf_counter()
    train_starts = dataset.split_starts("train")
    if len(train_starts) == 0 or len(dataset.split_starts("val")) == 0:
        raise DataError(
            f"training needs non-empty train and val splits, got"
            f" {len(train_starts)} and {len(dataset.split_starts('val'))} windows"
        )
    if not model.config.per_batch_static and model.static_adjacency is None:
        md.set_static_graph(model, dataset.values[: dataset.train_end])

    params = md.effective_parameters(model)
    state = AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    train_losses: list[float] = []
    val_mses: list[float] = []
    val_maes: list[float] = []
    best_mse = np.inf
    best_epoch = -1
    best_blob = b""
    bad_epochs = 0
    early = False

    for epoch in range(cfg.epochs):
        order = rng.permutation(train_starts)
        squared_sum = 0.0
        seen = 0
        for i in range(0, len(order), cfg.batch):
            chunk = order[i : i + cfg.batch]
            inputs, targets = dataset.batch(chunk)
            loss = mse_loss(md.forward(ad.Tensor(inputs), model), targets)
            grads = ad.backward(loss, params)
            clip_gradients(grads, cfg.clip)
            adam_step(params, grads, state)
            for p in params:
                p.zero_grad()
            squared_sum += float(loss.data) * len(chunk)
            seen += len(chunk)
        train_losses.append(squared_sum / seen)

        v_mse, v_mae = evaluate(model, dataset, "val", cfg.batch)
        val_mses.append(v_mse)
        val_maes.append(v_mae)
        if v_mse < best_mse:
            best_mse = v_mse
            best_epoch = epoch
            best_blob = md.save_checkpoint(model, extra=extra)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                early = True
                break

    report = TrainReport(
        train_losses=train_losses,
        val_mse=val_mses,
        val_mae=val_maes,
        best_epoch=best_epoch,
        best_val_mse=float(best_mse),
        early_stopped=early,
        epochs_run=len(train_losses),
        wall_time_sec=time.perf_counter() - began,
    )
    return report, best_blob
