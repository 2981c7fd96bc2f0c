"""Mini-batch training loop with validation-based early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericError
from ..nn import ModelGraph, RmsProp, loss_eval
from ..rng import stream


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    val_loss: float | None


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 = no epochs ran
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.records)


class EarlyStopper:
    """Track best validation loss; trip after `patience` epochs without
    strict improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise DataError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; True when training should stop."""
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def _batch_loss(model: ModelGraph, x: np.ndarray, t: np.ndarray, loss_kind: str,
                batch_size: int) -> float:
    """Mean per-element loss over a dataset in eval mode."""
    total = 0.0
    for i in range(0, x.shape[0], batch_size):
        xb, tb = x[i : i + batch_size], t[i : i + batch_size]
        y = model.forward(xb, mode="eval")
        loss, _ = loss_eval(y, tb, loss_kind)
        total += loss * xb.shape[0]
    return total / x.shape[0]


def train(
    model: ModelGraph,
    train_x: np.ndarray,
    train_t: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    loss_kind: str,
    learning_rate: float = 1e-3,
    val_x: np.ndarray | None = None,
    val_t: np.ndarray | None = None,
    patience: int | None = None,
    seed: int = 0,
) -> TrainHistory:
    """Train in place with RmsProp; returns the per-epoch history.

    Autoencoders pass targets equal to inputs; classifiers pass labels.
    With a validation set and a patience, training stops once validation
    loss stalls for `patience` epochs and the best-validation snapshot is
    restored, so the returned model is never worse than any epoch seen.
    NaN loss aborts with a NumericError naming the epoch.
    """
    if train_x.shape[0] == 0:
        raise DataError("training set is empty")
    if train_x.shape[0] != train_t.shape[0]:
        raise DataError(
            f"inputs ({train_x.shape[0]}) and targets ({train_t.shape[0]}) differ"
        )
    if batch_size < 1:
        raise DataError(f"batch size must be >= 1, got {batch_size}")
    opt = RmsProp(learning_rate)
    stopper = None
    if patience is not None and val_x is not None:
        stopper = EarlyStopper(patience)
    best: dict[str, np.ndarray] | None = None
    history = TrainHistory()
    n = train_x.shape[0]
    for epoch in range(1, epochs + 1):
        order = stream(seed, f"train-shuffle/{epoch}").permutation(n)
        running = 0.0
        for i in range(0, n, batch_size):
            idx = order[i : i + batch_size]
            xb, tb = train_x[idx], train_t[idx]
            caches: list = []
            y = model.forward(xb, mode="train", caches=caches)
            loss, dy = loss_eval(y, tb, loss_kind)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged: loss {loss} at epoch {epoch} "
                    f"(batch starting at sample {i})"
                )
            running += loss * xb.shape[0]
            _, grads = model.backward(dy, caches, input_grad=False)
            opt.step(model.params, grads)
        train_loss = running / n
        val_loss = None
        if val_x is not None:
            val_loss = _batch_loss(model, val_x, val_t, loss_kind, batch_size)
            if not np.isfinite(val_loss):
                raise NumericError(f"validation loss {val_loss} at epoch {epoch}")
        history.records.append(EpochRecord(epoch, train_loss, val_loss))
        if stopper is not None:
            stop = stopper.update(epoch, val_loss)
            if stopper.best_epoch == epoch:
                best = model.snapshot()
            if stop:
                history.stopped_early = True
                break
    if stopper is not None:
        history.best_epoch = stopper.best_epoch
        if best is not None:
            model.restore(best)
    elif history.records:
        history.best_epoch = min(
            history.records, key=lambda r: (r.val_loss if r.val_loss is not None else r.train_loss)
        ).epoch
    return history
