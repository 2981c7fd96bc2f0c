"""Evaluation metrics against loop oracles and algebraic identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomdet.errors import DataError
from anomdet.metrics import (
    ConfusionCounts,
    EvalReport,
    confusion_counts,
    f1_score,
    roc_auc,
    save_histogram,
    score_histogram,
)


def pairwise_auc(scores, labels):
    """O(n^2) oracle: mean over (defect, good) pairs of 1/0.5/0."""
    pos = [s for s, l in zip(scores, labels) if l == "defect"]
    neg = [s for s, l in zip(scores, labels) if l == "good"]
    acc = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                acc += 1.0
            elif p == n:
                acc += 0.5
    return acc / (len(pos) * len(neg))


# ----------------------------------------------------------- confusion


def test_confusion_all_correct():
    labels = ["defect"] * 3 + ["good"] * 2
    c = confusion_counts(labels, labels)
    assert (c.tp, c.tn, c.fp, c.fn) == (3, 2, 0, 0)


def test_confusion_all_missed():
    c = confusion_counts(["defect"] * 4, ["good"] * 4)
    assert c.fn == 4 and c.tp == c.fp == c.tn == 0


def test_confusion_matches_loop_oracle():
    rng = np.random.default_rng(0)
    labels = [("good", "defect")[i] for i in rng.integers(0, 2, 50)]
    preds = [("good", "defect")[i] for i in rng.integers(0, 2, 50)]
    c = confusion_counts(labels, preds)
    tp = sum(1 for l, p in zip(labels, preds) if l == "defect" and p == "defect")
    fp = sum(1 for l, p in zip(labels, preds) if l == "good" and p == "defect")
    tn = sum(1 for l, p in zip(labels, preds) if l == "good" and p == "good")
    fn = sum(1 for l, p in zip(labels, preds) if l == "defect" and p == "good")
    assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
    assert c.total == 50


def test_confusion_length_mismatch():
    with pytest.raises(DataError, match="length"):
        confusion_counts(["good"], ["good", "defect"])


# ------------------------------------------------------------------- f1


def test_f1_perfect():
    assert f1_score(ConfusionCounts(10, 0, 0, 0)) == 1.0


def test_f1_known_value():
    assert f1_score(ConfusionCounts(30, 10, 0, 10)) == 0.75


def test_f1_zero_denominator():
    assert f1_score(ConfusionCounts(0, 0, 5, 0)) == 0.0


def test_f1_equals_harmonic_mean_exactly_1000_cases():
    """f1 == 2PR/(P+R) as exact rationals, and the float result equals the
    float of the exact rational (denominators 2tp+fp+fn are exactly
    representable, so tp/(tp+(fp+fn)/2) rounds identically)."""
    rng = np.random.default_rng(1)
    for _ in range(1000):
        tp, fp, fn = (int(v) for v in rng.integers(0, 200, 3))
        tn = int(rng.integers(0, 200))
        got = f1_score(ConfusionCounts(tp, fp, tn, fn))
        if tp + fp == 0 or tp + fn == 0 or tp == 0:
            # P or R undefined/zero; spec convention: f1 = 0 at zero denominator
            if tp + fp + fn == 0:
                assert got == 0.0
                continue
            exact = Fraction(2 * tp, 2 * tp + fp + fn)
            assert got == float(exact)
            continue
        p = Fraction(tp, tp + fp)
        r = Fraction(tp, tp + fn)
        harmonic = 2 * p * r / (p + r)
        assert got == float(harmonic)


@given(
    tp=st.integers(0, 1000), fp=st.integers(0, 1000),
    tn=st.integers(0, 1000), fn=st.integers(0, 1000),
)
def test_f1_range_and_perfection_property(tp, fp, tn, fn):
    f1 = f1_score(ConfusionCounts(tp, fp, tn, fn))
    assert 0.0 <= f1 <= 1.0
    if f1 == 1.0:
        assert fp == 0 and fn == 0 and tp > 0
    if fp == 0 and fn == 0 and tp > 0:
        assert f1 == 1.0


# ------------------------------------------------------------------ auc


def test_auc_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = ["defect", "defect", "good", "good"]
    assert roc_auc(scores, labels) == 1.0


def test_auc_all_ties():
    assert roc_auc([0.5] * 6, ["defect"] * 3 + ["good"] * 3) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DataError, match="single class"):
        roc_auc([0.1, 0.2], ["good", "good"])


def test_auc_matches_pairwise_oracle_exactly_200_sets():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(4, 25))
        # quantized scores force plenty of ties
        scores = (rng.integers(0, 8, n) / 4.0).tolist()
        labels = [("good", "defect")[i] for i in rng.integers(0, 2, n)]
        if "good" not in labels or "defect" not in labels:
            continue
        assert roc_auc(scores, labels) == pairwise_auc(scores, labels)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(30)
    labels = [("good", "defect")[i] for i in rng.integers(0, 2, 30)]
    labels[0], labels[1] = "good", "defect"
    a = roc_auc(scores, labels)
    b = roc_auc(np.exp(scores), labels)  # strictly monotone
    c = roc_auc(3 * scores - 7, labels)
    assert a == b == c


def test_auc_negation_complement_for_tie_free_scores():
    rng = np.random.default_rng(4)
    scores = rng.permutation(30) / 7.0  # distinct values
    labels = [("good", "defect")[i] for i in rng.integers(0, 2, 30)]
    labels[0], labels[1] = "good", "defect"
    assert roc_auc(scores, labels) + roc_auc(-scores, labels) == 1.0


# -------------------------------------------------------------- histogram


def test_histogram_single_score():
    edges, counts = score_histogram({"all": [0.3]}, bins=4)
    assert counts["all"].sum() == 1
    assert len(edges) == 5


def test_histogram_counts_sum_per_group():
    rng = np.random.default_rng(5)
    groups = {"good": rng.uniform(0, 1, 40).tolist(),
              "defect": rng.uniform(0.5, 1.5, 25).tolist()}
    _, counts = score_histogram(groups, bins=10)
    assert counts["good"].sum() == 40
    assert counts["defect"].sum() == 25


def test_histogram_empty_rejected():
    with pytest.raises(DataError, match="no scores"):
        score_histogram({"a": []}, bins=4)


def test_histogram_files_written(tmp_path):
    save_histogram({"good": [0.1, 0.2], "defect": [0.8]}, tmp_path, stem="recon")
    assert (tmp_path / "recon_histogram.csv").is_file()
    assert (tmp_path / "recon_histogram.pgm").is_file()
    text = (tmp_path / "recon_histogram.csv").read_text()
    assert text.startswith("bin_low,bin_high,good,defect")


# ----------------------------------------------------------------- report


def _rows():
    return [
        {"path": "a", "label": "defect", "score": 0.9, "decision": "defect"},
        {"path": "b", "label": "defect", "score": 0.4, "decision": "good"},
        {"path": "c", "label": "good", "score": 0.3, "decision": "good"},
        {"path": "d", "label": "good", "score": 0.6, "decision": "defect"},
    ]


def _recompute(rep):
    """(f1, roc_auc) from the report's stored raw rows, through from_rows."""
    again = EvalReport.from_rows(rep.rows, rep.dataset_name, rep.seed, rep.threshold_info)
    return again.f1, again.roc_auc


def test_report_from_rows():
    rep = EvalReport.from_rows(_rows(), "synthetic", 7, {"rule": "or"})
    assert rep.confusion == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
    assert rep.f1 == f1_score(rep.confusion)


def test_report_single_class_has_nan_auc():
    rows = [r for r in _rows() if r["label"] == "good"]
    rep = EvalReport.from_rows(rows, "synthetic", 7, {"rule": "or"})
    assert rep.confusion.total == len(rows)
    assert math.isnan(rep.roc_auc)
    f1_again, auc_again = _recompute(rep)
    assert f1_again == rep.f1 and math.isnan(auc_again)


def test_report_round_trip_reproduces_metrics(tmp_path):
    rep = EvalReport.from_rows(_rows(), "synthetic", 7, {"rule": "or", "tau_re": 0.5})
    rep.save(tmp_path)
    back = EvalReport.load(tmp_path)
    assert back.f1 == rep.f1
    assert back.roc_auc == rep.roc_auc
    f1_again, auc_again = _recompute(back)
    assert f1_again == rep.f1
    assert auc_again == rep.roc_auc
    assert back.threshold_info == rep.threshold_info


def test_report_csv_formats(tmp_path):
    rep = EvalReport.from_rows(_rows(), "synthetic", 7, {"rule": "or"})
    rep.save(tmp_path)
    summary = (tmp_path / "summary.csv").read_text()
    assert "\r" not in summary
    lines = summary.strip().split("\n")
    assert lines[0] == "metric,value"
    f1_line = next(l for l in lines if l.startswith("f1,"))
    assert len(f1_line.split(",")[1].split(".")[1]) == 6  # six decimals
    detail = (tmp_path / "detail.csv").read_text().strip().split("\n")
    assert detail[0] == "path,label,score,decision"
    assert detail[1] == "a,defect,0.900000,defect"
