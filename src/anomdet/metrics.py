"""Binary-classification evaluation: confusion counts, F1, ROC-AUC,
score histograms, and the serializable evaluation report.

Defect is the positive class throughout. F1 uses tp / (tp + (fp+fn)/2),
defined as 0 when the denominator vanishes. ROC-AUC is the probability
that a random defect outscores a random good sample, ties half-credited,
computed with midranks so it equals the O(n^2) pairwise count exactly
(all per-pair contributions are multiples of 1/2, which float sums carry
exactly at these sizes).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

LABELS = ("good", "defect")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(labels: list[str], predictions: list[str]) -> ConfusionCounts:
    """Accumulate counts with defect as the positive class."""
    if len(labels) != len(predictions):
        raise DataError(
            f"labels ({len(labels)}) and predictions ({len(predictions)}) differ in length"
        )
    if not labels:
        raise DataError("cannot evaluate an empty sample list")
    tp = fp = tn = fn = 0
    for lab, pred in zip(labels, predictions):
        if lab not in LABELS or pred not in LABELS:
            raise DataError(f"labels must be good|defect, got ({lab!r}, {pred!r})")
        if lab == "defect":
            if pred == "defect":
                tp += 1
            else:
                fn += 1
        else:
            if pred == "defect":
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def f1_score(c: ConfusionCounts) -> float:
    """tp / (tp + (fp + fn)/2); 0 when the denominator is 0."""
    denom = c.tp + 0.5 * (c.fp + c.fn)
    if denom == 0:
        return 0.0
    return c.tp / denom


def roc_auc(scores, labels: list[str]) -> float:
    """Rank-statistic AUC with midrank tie handling.

    Equals (1/(n_pos*n_neg)) * sum over (defect, good) pairs of
    [1 if defect outscores, 0.5 if tied, 0 otherwise].
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(labels) != scores.size:
        raise DataError("scores and labels must be equal-length 1-D sequences")
    pos = np.array([lab == "defect" for lab in labels])
    n_pos = int(pos.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"ROC-AUC undefined with a single class (defects: {n_pos}, goods: {n_neg})"
        )
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[pos].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# ----------------------------------------------------------------- report


@dataclass
class EvalReport:
    confusion: ConfusionCounts
    f1: float
    roc_auc: float
    dataset_name: str
    seed: int
    threshold_info: dict
    rows: list[dict] = field(default_factory=list)
    # each row: path, label, score (anomaly score used for ranking), decision

    @classmethod
    def from_rows(cls, rows, dataset_name, seed, threshold_info):
        labels = [r["label"] for r in rows]
        decisions = [r["decision"] for r in rows]
        scores = [r["score"] for r in rows]
        conf = confusion_counts(labels, decisions)
        return cls(
            confusion=conf,
            f1=f1_score(conf),
            roc_auc=roc_auc(scores, labels),
            dataset_name=dataset_name,
            seed=seed,
            threshold_info=dict(threshold_info),
            rows=[dict(r) for r in rows],
        )

    def recompute(self) -> tuple[float, float]:
        """(f1, roc_auc) from the stored raw rows."""
        conf = confusion_counts(
            [r["label"] for r in self.rows], [r["decision"] for r in self.rows]
        )
        return f1_score(conf), roc_auc([r["score"] for r in self.rows],
                                       [r["label"] for r in self.rows])

    # -- persistence -----------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write report.json (full precision) plus summary/detail CSVs
        (6 decimal places, '.' decimal separator, '\\n' newlines)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "confusion": {
                "tp": self.confusion.tp,
                "fp": self.confusion.fp,
                "tn": self.confusion.tn,
                "fn": self.confusion.fn,
            },
            "f1": self.f1,
            # NaN (single-class split) is not JSON; null stands for it
            "roc_auc": None if math.isnan(self.roc_auc) else self.roc_auc,
            "dataset_name": self.dataset_name,
            "seed": self.seed,
            "threshold_info": self.threshold_info,
            "rows": self.rows,
            "conventions": "defect is positive; f1 = tp/(tp+(fp+fn)/2), 0 at zero denominator",
        }
        (directory / "report.json").write_text(json.dumps(payload, indent=1))
        with open(directory / "summary.csv", "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["metric", "value"])
            w.writerow(["f1", f"{self.f1:.6f}"])
            w.writerow(["roc_auc", f"{self.roc_auc:.6f}"])
            for k in ("tp", "fp", "tn", "fn"):
                w.writerow([k, getattr(self.confusion, k)])
        with open(directory / "detail.csv", "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["path", "label", "score", "decision"])
            for r in self.rows:
                w.writerow([r["path"], r["label"], f"{r['score']:.6f}", r["decision"]])

    @classmethod
    def load(cls, directory: str | Path) -> "EvalReport":
        path = Path(directory) / "report.json"
        if not path.is_file():
            raise DataError(f"no report.json under {directory}")
        payload = json.loads(path.read_text())
        conf = ConfusionCounts(**payload["confusion"])
        return cls(
            confusion=conf,
            f1=payload["f1"],
            roc_auc=float("nan") if payload["roc_auc"] is None else payload["roc_auc"],
            dataset_name=payload["dataset_name"],
            seed=payload["seed"],
            threshold_info=payload["threshold_info"],
            rows=payload["rows"],
        )


# -------------------------------------------------------------- histogram


def score_histogram(groups: dict[str, list[float]], bins: int = 20):
    """Shared-edge histogram over named score groups.

    Returns (edges, {name: counts}). Edges span the pooled min/max; a
    degenerate span widens by ±0.5 so single values land in a bin.
    """
    if bins < 2:
        raise DataError(f"need at least 2 bins, got {bins}")
    pooled = [v for vs in groups.values() for v in vs]
    if not pooled:
        raise DataError("no scores to histogram")
    lo, hi = float(min(pooled)), float(max(pooled))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = {
        name: np.histogram(np.asarray(vs, dtype=np.float64), bins=edges)[0]
        for name, vs in groups.items()
    }
    return edges, counts


def save_histogram(groups: dict[str, list[float]], directory: str | Path,
                   stem: str = "scores", bins: int = 20) -> None:
    """Emit <stem>_histogram.csv and a PGM bar rendering per group."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    edges, counts = score_histogram(groups, bins)
    with open(directory / f"{stem}_histogram.csv", "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_low", "bin_high"] + list(counts))
        for i in range(len(edges) - 1):
            w.writerow(
                [f"{edges[i]:.6f}", f"{edges[i + 1]:.6f}"]
                + [int(counts[g][i]) for g in counts]
            )
    # bar plot: one row block per group, bar height scaled to 64 px
    from .data.codec import write_pgm

    height, bar_w, gap = 64, 8, 2
    peak = max(1, max(int(c.max()) for c in counts.values()))
    blocks = []
    for name, c in counts.items():
        img = np.zeros((height, (bar_w + gap) * len(c)), dtype=np.uint8)
        for i, v in enumerate(c):
            h = int(round(height * v / peak))
            if h:
                x = i * (bar_w + gap)
                img[height - h :, x : x + bar_w] = 255
        blocks.append(img)
        blocks.append(np.full((4, img.shape[1]), 128, dtype=np.uint8))
    sheet = np.concatenate(blocks[:-1], axis=0)
    write_pgm(directory / f"{stem}_histogram.pgm", sheet)
