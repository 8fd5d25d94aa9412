"""MSE training with Adam, early stopping, and metric evaluation.

The loss is the mean squared error of denormalized predictions against
targets on the dataset's own scale. Validation MSE drives early
stopping; the checkpoint returned is always the best-validation one.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import autodiff as ad
from . import model as md
from .data import WindowDataset
from .errors import ConfigError, DataError, GraphError, NumericError, ShapeError, StateError


# ---------------------------------------------------------------------------
# Metrics


def _paired(pred, target) -> tuple[np.ndarray, np.ndarray]:
    a = pred.data if isinstance(pred, ad.Tensor) else np.asarray(pred, dtype=np.float64)
    b = target.data if isinstance(target, ad.Tensor) else np.asarray(target, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"metric operands differ in shape: {a.shape} vs {b.shape}")
    return a, b


def _finite(value: float, name: str) -> float:
    # Metrics run outside the autodiff guard, so they check themselves:
    # finite predictions far from their targets can still overflow.
    if not math.isfinite(value):
        raise NumericError(f"{name} produced a non-finite value")
    return value


def mse(pred, target) -> float:
    a, b = _paired(pred, target)
    return _finite(float(np.mean((a - b) ** 2)), "mse")


def mae(pred, target) -> float:
    a, b = _paired(pred, target)
    return _finite(float(np.mean(np.abs(a - b))), "mae")


def mse_loss(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    """Mean squared error over all elements as one node, in the ops order of
    ``mean((pred - target) ** 2)``: that chain's value bit for bit and, as
    squares are never negative, its raises by the output guard alone. The
    VJP ``err * (2 * c * g)`` is the chain's two accumulations summed.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size == 0:
        raise ShapeError(f"loss operands are empty or differ: {pred.shape} vs {target.shape}")
    err = pred.data - target
    c = 1.0 / err.size
    data = (err * err).sum() * c

    def vjp(g):
        if pred.requires_grad:
            pred.accumulate(err * (2.0 * c * g))

    return ad.record(data, "mse_loss", (pred,), vjp)


# ---------------------------------------------------------------------------
# Adam


# Values per block of the in-place update. Adam runs op by op over one
# block at a time, so a block's arrays are still in cache for its next op.
_BLOCK = 16384


@dataclass
class AdamState:
    """Adam's moments, with the values and gradients they update, as flat vectors.

    The first ``adam_step`` fixes ``layout``, the (name, shape) of each
    parameter in the order it was given, and allocates ``values`` and
    ``grads`` (one array each) and ``m`` and ``v`` (one for both), flat
    vectors in that order. ``bound`` holds the views a step last bound
    to each parameter: its ``.data`` in ``values`` and its ``slot`` in
    ``grads``, where ``Parameter.accumulate`` writes the next backward's
    gradient. ``blocks`` holds the (values, grads, m, v) views of each
    16384-value block.
    """

    lr: float
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    t: int = 0
    layout: tuple = ()
    values: np.ndarray | None = None
    grads: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    bound: tuple = ()
    blocks: tuple = ()


def _bind(params: list[ad.Parameter], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bind each parameter's ``.data`` and ``slot`` to its views in ``state``.

    The first call allocates the vectors. After the parameter list is
    checked, every value or gradient that is not its view is copied in.
    """
    layout = tuple((p.name, p.data.shape) for p in params)
    if state.values is None:
        size = sum(p.data.size for p in params)
        state.layout, state.values, state.grads = layout, np.empty(size), np.empty(size)
        state.m, state.v = np.zeros((2, size))
        cuts = np.cumsum([p.data.size for p in params])[:-1]
        pieces = zip(layout, np.split(state.values, cuts), np.split(state.grads, cuts))
        state.bound = tuple((x.reshape(shape), g.reshape(shape)) for (_, shape), x, g in pieces)
        vectors = state.values, state.grads, state.m, state.v
        state.blocks = tuple(
            tuple(a[i : i + _BLOCK] for a in vectors) for i in range(0, size, _BLOCK)
        )
    elif layout != state.layout:
        raise StateError(
            "adam_step got a different parameter list from the one its state was built on"
        )
    for p, (x, s) in zip(params, state.bound):
        if p.data is not x:
            np.copyto(x, p.data)
            p.data = x
        if grads[p.name] is not s:
            np.copyto(s, grads[p.name])
        p.slot = s


def adam_step(params: list[ad.Parameter], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place over the state's flat vectors.

    A step checks by identity alone that each parameter's ``.data`` and
    gradient are the views the state bound last (see ``AdamState``). On
    any miss (the first step, a parameter rebound to another array, a
    gradient that is not its slot: a plain dict, another state's slot)
    one pass binds them all, copying in only what differs. The update
    then runs block by block over the vectors, each element through the
    same arithmetic, in the same order, as a per-parameter update, so the
    result is bit-identical to one. Values change in place: an array
    taken from a parameter's ``.data`` (an in-place write into it writes
    into the vector) holds the new values after the next step, and a
    slot is overwritten by the next backward.

    Raises ``GraphError`` for a parameter with no gradient, ``ShapeError``
    for a gradient of another shape and ``StateError`` when the parameter
    list differs from the one the state's first step saw, each before
    anything is copied or updated.
    """
    bound = state.bound
    hit = state.values is not None and len(params) == len(bound)
    for i, p in enumerate(params):
        g = grads.get(p.name)
        if g is None:
            raise GraphError(f"no gradient recorded for parameter {p.name!r}")
        if hit and p.data is bound[i][0] and g is bound[i][1]:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(
                f"gradient {g.shape} does not match parameter {p.name!r} {p.data.shape}"
            )
        hit = False
    if not hit:
        _bind(params, grads, state)
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    correct1 = 1.0 - b1**state.t
    correct2 = 1.0 - b2**state.t
    # Each line keeps the operand order of m = b1 * m + (1 - b1) * g,
    # v = b2 * v + (1 - b2) * (g * g) and
    # step = lr * (m / c1) / (sqrt(v / c2) + eps). The two scratch blocks
    # live for the step alone: kept in the state, they raised the peak RSS
    # of a process holding two states.
    block = min(_BLOCK, state.grads.size)
    scratch = np.empty(block), np.empty(block)
    for x, g, m, v in state.blocks:
        s, u = (a[: x.size] for a in scratch)
        m *= b1
        np.multiply(1.0 - b1, g, out=s)
        m += s
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v *= b2
        v += s
        np.divide(v, correct2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(m, correct1, out=u)
        u *= lr
        u /= s
        x -= u


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm; ``max_norm <= 0`` disables clipping. The
    norm is one sum of squares over one vector, and one multiply scales
    it. When the arrays of ``grads`` tile one 1-D vector (each is a view
    of it, and their sizes sum to its size, as an ``AdamState``'s slots
    in ``ad.backward``'s result do after the first step), that vector is
    read and scaled in place, and the norm is summed in its order, not
    the dict's. Views that overlap would be misread; ``ad.backward`` never
    returns them. Any other dict is concatenated, and ``grads`` then holds
    views of the scaled copy. The sum is numpy's ``einsum`` loop, not a
    BLAS dot, whose bits depend on the number of BLAS threads. A squared
    norm that over- or underflows is taken again on the vector over its
    largest entry; a norm that is still not finite leaves the gradients
    as they are.
    """
    arrays = list(grads.values())
    flat = arrays[0].base if arrays else None
    in_place = (
        isinstance(flat, np.ndarray)
        and flat.ndim == 1
        and all(a.base is flat for a in arrays)
        and sum(a.size for a in arrays) == flat.size
    )
    if not in_place:
        flat = np.concatenate([np.zeros(0), *(g.reshape(-1) for g in arrays)])
    with np.errstate(over="ignore"):  # handled below
        norm = math.sqrt(float(np.einsum("i,i->", flat, flat)))
    if norm == math.inf or (norm == 0.0 and flat.any()):
        peak = float(np.abs(flat).max())
        if peak < math.inf:
            norm = peak * math.sqrt(float(np.einsum("i,i->", flat / peak, flat / peak)))
    if max_norm > 0.0 and max_norm < norm < math.inf:
        flat *= max_norm / norm
        if not in_place:
            start = 0
            for name, g in grads.items():
                grads[name] = flat[start : start + g.size].reshape(g.shape)
                start += g.size
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
        # NaN fails every comparison, so a NaN lr or clip (which would
        # turn clipping off) needs the finiteness check.
        finite = math.isfinite(self.lr) and math.isfinite(self.clip)
        positive = self.epochs >= 1 and self.patience >= 1 and self.batch >= 1
        if not finite or self.lr < 0 or self.seed < 0 or not positive:
            raise ConfigError(f"invalid training config: {self}")


@dataclass
class TrainReport:
    """What ``train`` recorded, one list entry per finished epoch.

    ``grad_norm_max`` and ``grad_norm_median`` summarize the global
    gradient norms of the epoch's steps before clipping, and
    ``clipped_fraction`` is the share of those steps that clipping
    scaled down. The defaults are those of a run before its first epoch.
    """

    train_losses: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    val_mae: list = field(default_factory=list)
    grad_norm_max: list = field(default_factory=list)
    grad_norm_median: list = field(default_factory=list)
    clipped_fraction: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_mse: float = math.inf
    early_stopped: bool = False
    epochs_run: int = 0
    wall_time_sec: float = 0.0

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
    dict from the same forward pass that made its forecasts. A ``batch``
    below 1 raises ``ConfigError``.
    """
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
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

    A model with no static graph gets one frozen from the training rows.
    ``extra`` is stored verbatim in every checkpoint written (the CLI
    keeps the dataset scaler there so evaluation can reproduce scaling).
    A step whose gradient norm is not finite raises ``NumericError``
    naming the parameters with non-finite gradients, before the optimizer
    changes any parameter or moment. A ``NumericError`` raised in an
    epoch is re-raised carrying that ``epoch``, the ``report`` of what was
    recorded before it and the best ``checkpoint`` so far (``b""`` if no
    epoch finished).
    """
    began = time.perf_counter()
    train_starts = dataset.split_starts("train")
    if len(train_starts) == 0 or len(dataset.split_starts("val")) == 0:
        raise DataError(
            f"training needs non-empty train and val splits, got"
            f" {len(train_starts)} and {len(dataset.split_starts('val'))} windows"
        )
    if model.static_adjacency is None:
        md.set_static_graph(model, dataset.values[: dataset.train_end])

    params = md.effective_parameters(model)
    state = AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()
    best_blob = b""
    bad_epochs = 0
    epoch = 0
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(train_starts)
            squared_sum = 0.0
            seen = 0
            norms = []
            for i in range(0, len(order), cfg.batch):
                chunk = order[i : i + cfg.batch]
                inputs, targets = dataset.batch(chunk)
                loss = mse_loss(md.forward(ad.Tensor(inputs), model), targets)
                grads = ad.backward(loss, params)
                norms.append(clip_gradients(grads, cfg.clip))
                if not math.isfinite(norms[-1]):
                    bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
                    raise NumericError(
                        f"gradient norm is {norms[-1]}; non-finite gradients: {bad or 'none'}"
                    )
                adam_step(params, grads, state)
                for p in params:
                    p.zero_grad()
                squared_sum += float(loss.data) * len(chunk)
                seen += len(chunk)
            report.train_losses.append(squared_sum / seen)
            report.grad_norm_max.append(max(norms))
            report.grad_norm_median.append(statistics.median(norms))
            report.clipped_fraction.append(
                sum(cfg.clip > 0.0 and n > cfg.clip for n in norms) / len(norms)
            )

            v_mse, v_mae = evaluate(model, dataset, "val", cfg.batch)
            report.val_mse.append(v_mse)
            report.val_mae.append(v_mae)
            if v_mse < report.best_val_mse:
                report.best_val_mse = v_mse
                report.best_epoch = epoch
                best_blob = md.save_checkpoint(model, extra=extra)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    report.early_stopped = True
                    break
    except NumericError as exc:
        exc.epoch = epoch
        exc.report = report
        exc.checkpoint = best_blob
        raise
    finally:
        # The state ends here: its values vector is exactly the parameters,
        # and dropping the slots, and any gradient a failed step left in
        # one, lets its gradients and moments go.
        for p in params:
            p.grad = None if p.grad is p.slot else p.grad
            p.slot = None
        report.epochs_run = len(report.train_losses)
        report.wall_time_sec = time.perf_counter() - began
    return report, best_blob
