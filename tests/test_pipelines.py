"""Model builders, the training loop, thresholds, and supervised decisions."""

import numpy as np
import pytest

from anomdet.errors import ConfigError, DataError, NumericError
from anomdet.nn import LayerSpec, ModelGraph
from anomdet.pipelines import (
    CnnConfig,
    EarlyStopper,
    KdCaeConfig,
    NiCaeConfig,
    ThresholdSet,
    build_cnn,
    build_kd_cae,
    build_ni_cae,
    calibrate_thresholds,
    classify_supervised,
    decide_anomaly,
    encode_latent,
    fit_kde,
    score_batch,
    train,
)

from oracles import two_pass_scores

# ---------------------------------------------------------------- builders


def test_cnn_output_shape_and_zero_image_probability():
    m = build_cnn(CnnConfig(input_shape=(1, 64, 64)), seed=1)
    y = m.forward(np.zeros((3, 1, 64, 64), dtype=np.float32))
    assert y.shape == (3, 1)
    # zero input, zero biases -> dense output 0 -> sigmoid 0.5
    np.testing.assert_allclose(y, 0.5)


def test_cnn_default_input_traces_to_six():
    m = build_cnn(CnnConfig(), seed=2)
    # spatial walk 200-100-50-25-12-6 with floored odd pooling
    conv_shapes = [m.shapes[i] for i, s in enumerate(m.specs) if s.kind == "maxpool2d"]
    assert [s[1] for s in conv_shapes] == [200, 100, 50, 25, 12]
    # tail: flatten, dense 64, relu, dense 1, sigmoid
    assert m.shapes[-5] == (16 * 6 * 6,)


def test_cnn_parameter_count_closed_form():
    cfg = CnnConfig(input_shape=(3, 200, 200))
    m = build_cnn(cfg, seed=3)
    expect = 0
    in_c = 3
    for _ in range(5):
        expect += 16 * in_c * 9 + 16
        in_c = 16
    expect += 64 * (16 * 6 * 6) + 64  # hidden dense
    expect += 1 * 64 + 1  # output dense
    got = sum(p.size for p in m.params.values())
    assert got == expect


def test_cnn_rejects_tiny_input():
    with pytest.raises(ConfigError, match="too small"):
        build_cnn(CnnConfig(input_shape=(1, 16, 16)), seed=4)


def test_kd_cae_round_trip_shape_and_latent():
    cfg = KdCaeConfig(input_shape=(1, 128, 128))
    assert cfg.latent_dim == 8192
    m = build_kd_cae(cfg, seed=5)
    x = np.random.default_rng(0).uniform(0, 1, (2, 1, 128, 128)).astype(np.float32)
    y = m.forward(x)
    assert y.shape == x.shape
    z = encode_latent(m, x)
    assert z.shape == (2, 8192)


def test_kd_cae_encoder_decoder_depth():
    m = build_kd_cae(KdCaeConfig(input_shape=(1, 64, 64)), seed=6)
    weighted = [s.kind for s in m.specs if s.kind in ("conv2d", "conv2d_transpose")]
    assert len(weighted) == 12  # six per side
    assert weighted[:6] == ["conv2d"] * 6
    enc_filters = [s.filters for s in m.specs[: m.bottleneck] if s.kind == "conv2d"]
    assert enc_filters == [32, 32, 64, 64, 128, 128]
    assert m.specs[-1].activation == "sigmoid"


def test_kd_cae_output_in_unit_interval():
    m = build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=7)
    x = np.random.default_rng(1).uniform(0, 1, (2, 1, 32, 32)).astype(np.float32)
    y = m.forward(x)
    assert y.min() >= 0.0 and y.max() <= 1.0


def test_kd_cae_rejects_bad_size():
    with pytest.raises(ConfigError, match="multiple of 16"):
        build_kd_cae(KdCaeConfig(input_shape=(1, 100, 100)), seed=8)


def test_ni_cae_filter_sequence_and_one_by_one_output():
    m = build_ni_cae(NiCaeConfig(input_shape=(1, 128, 128)), seed=9)
    enc_filters = [s.filters for s in m.specs if s.kind == "conv2d" and s.kernel == 3]
    assert enc_filters == [128, 64, 16, 8, 4]
    out_conv = [s for s in m.specs if s.kind == "conv2d" and s.kernel == 1]
    assert len(out_conv) == 1 and out_conv[0].filters == 1
    assert m.specs[-1].activation == "sigmoid"


def test_ni_cae_round_trip_and_bottleneck():
    m = build_ni_cae(NiCaeConfig(input_shape=(1, 64, 64)), seed=10)
    x = np.random.default_rng(2).uniform(0, 1, (2, 1, 64, 64)).astype(np.float32)
    y = m.forward(x)
    assert y.shape == x.shape
    z = encode_latent(m, x)
    assert z.shape == (2, 512)


def test_ni_cae_rejects_rgb():
    with pytest.raises(ConfigError, match="grayscale"):
        build_ni_cae(NiCaeConfig(input_shape=(3, 128, 128)), seed=11)


def test_latent_differs_after_input_perturbation():
    m = build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=12)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 0.8, (1, 1, 32, 32)).astype(np.float32)
    noisy = np.clip(x + rng.normal(0, 0.05, x.shape).astype(np.float32), 0, 1)
    za = encode_latent(m, x)
    zb = encode_latent(m, noisy)
    assert np.linalg.norm(za - zb) > 0


# ---------------------------------------------------------------- training


def tiny_cae(seed=0, bottleneck=None):
    specs = [
        LayerSpec("conv2d", filters=4, kernel=3, stride=2, padding=1),
        LayerSpec("activation", activation="relu"),
        LayerSpec("conv2d_transpose", filters=1, kernel=4, stride=2, padding=1),
        LayerSpec("activation", activation="sigmoid"),
    ]
    return ModelGraph(specs, (1, 8, 8), rng_seed=seed, model_kind="tiny",
                      bottleneck=bottleneck)


def test_train_zero_epochs_leaves_model_unchanged():
    m = tiny_cae()
    before = {k: v.copy() for k, v in m.params.items()}
    x = np.random.default_rng(0).uniform(0, 1, (4, 1, 8, 8)).astype(np.float32)
    hist = train(m, x, x, epochs=0, batch_size=2, loss_kind="mse")
    assert hist.epochs_run == 0
    for k in before:
        np.testing.assert_array_equal(m.params[k], before[k])


def test_train_reduces_loss():
    m = tiny_cae()
    x = np.random.default_rng(1).uniform(0.3, 0.7, (8, 1, 8, 8)).astype(np.float32)
    hist = train(m, x, x, epochs=30, batch_size=4, loss_kind="mse", learning_rate=3e-3)
    assert hist.records[-1].train_loss < hist.records[0].train_loss


def test_early_stopper_plateau_arithmetic():
    # losses 1.0 then six 0.9s, patience 5: stop after the 7th, best is 2nd
    stopper = EarlyStopper(patience=5)
    losses = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    stops = [stopper.update(i + 1, v) for i, v in enumerate(losses)]
    assert stops == [False, False, False, False, False, False, True]
    assert stopper.best_epoch == 2


def test_train_early_stopping_restores_best_snapshot():
    m = tiny_cae(seed=3)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.3, 0.7, (8, 1, 8, 8)).astype(np.float32)
    val = rng.uniform(0.3, 0.7, (4, 1, 8, 8)).astype(np.float32)
    # crank the lr so validation loss oscillates and patience can trigger
    hist = train(
        m, x, x, epochs=200, batch_size=4, loss_kind="mse", learning_rate=5e-2,
        val_x=val, val_t=val, patience=3, seed=5,
    )
    assert hist.best_epoch >= 1
    best_recorded = min(r.val_loss for r in hist.records)
    # the restored model's validation loss equals the best snapshot's
    recon = m.forward(val, mode="eval")
    final_val = float(np.mean((recon.astype(np.float64) - val) ** 2))
    np.testing.assert_allclose(final_val, best_recorded, rtol=1e-6)


def test_train_overfits_eight_images():
    """Eight synthetic-style images, 300 epochs: train mse ends < 0.005 and
    far below the untrained reconstruction error."""
    from anomdet.data import generate_synthetic_set
    from anomdet.pipelines import build_kd_cae

    ds = generate_synthetic_set("disk", 8, 1, 0.0, 32, seed=13)
    x = ds.stack("train")
    m = build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=14)
    untrained = score_batch(m, x)[0].mean()
    hist = train(m, x, x, epochs=300, batch_size=4, loss_kind="mse",
                 learning_rate=2e-3, seed=15)
    assert hist.records[-1].train_loss < 0.005
    assert hist.records[-1].train_loss < untrained


def test_train_nan_aborts_with_numeric_error():
    m = tiny_cae(seed=6)
    x = np.full((4, 1, 8, 8), np.nan, dtype=np.float32)
    with pytest.raises(NumericError, match="epoch 1"):
        train(m, x, x, epochs=1, batch_size=2, loss_kind="mse")


def test_train_empty_set_rejected():
    m = tiny_cae()
    x = np.zeros((0, 1, 8, 8), dtype=np.float32)
    with pytest.raises(DataError, match="empty"):
        train(m, x, x, epochs=1, batch_size=2, loss_kind="mse")


# ----------------------------------------------------- scores & thresholds


def test_reconstruction_error_identity_model_is_zero():
    m = ModelGraph([], (1, 8, 8), rng_seed=0, model_kind="identity")
    x = np.random.default_rng(5).uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
    assert score_batch(m, x)[0][0] == 0.0


def test_reconstruction_errors_batch_matches_singles():
    x = np.random.default_rng(6).uniform(0, 1, (5, 1, 8, 8)).astype(np.float32)
    for bottleneck in (None, 1):  # 1: the encoder's relu output
        m = tiny_cae(seed=7, bottleneck=bottleneck)
        batch, latents = score_batch(m, x)
        singles = [score_batch(m, x[i : i + 1]) for i in range(5)]
        np.testing.assert_allclose(batch, [e[0] for e, _ in singles], rtol=1e-12)
        if bottleneck is None:
            assert latents is None and all(z is None for _, z in singles)
        else:
            assert latents.shape == (5, 4 * 4 * 4)
            np.testing.assert_allclose(
                latents, np.concatenate([z for _, z in singles]), rtol=1e-12
            )


def _bits(a):
    return a.view(f"u{a.itemsize}")


@pytest.mark.parametrize("n", [1, 16, 37])
@pytest.mark.parametrize("kind", ["kd-cae", "ni-cae", "no-bottleneck"])
def test_score_batch_bitwise_equals_two_pass(kind, n):
    if kind == "kd-cae":
        m = build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=18)
    elif kind == "ni-cae":
        m = build_ni_cae(NiCaeConfig(input_shape=(1, 32, 32)), seed=18)
    else:
        m = tiny_cae(seed=18)
    x = np.random.default_rng(n).uniform(0, 1, (n,) + m.input_shape).astype(np.float32)
    errors, latents = score_batch(m, x)
    ref_errors, ref_latents = two_pass_scores(m, x)
    assert errors.dtype == np.float64
    assert np.array_equal(_bits(errors), _bits(ref_errors))
    if m.bottleneck is None:
        assert latents is None and ref_latents is None
    else:
        width = int(np.prod(m.shapes[m.bottleneck + 1]))
        assert latents.dtype == np.float32 and latents.shape == ref_latents.shape == (n, width)
        assert np.array_equal(_bits(latents), _bits(ref_latents))


def test_score_batch_runs_one_forward_per_batch(monkeypatch):
    m = build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=19)
    calls = []

    def counting(name):
        method = getattr(m, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        return wrapper

    for name in ("forward", "forward_to"):
        monkeypatch.setattr(m, name, counting(name))
    x = np.random.default_rng(11).uniform(0, 1, (37, 1, 32, 32)).astype(np.float32)
    score_batch(m, x)
    assert calls == ["forward"] * 3  # ceil(37 / 16), no encoder-only pass


def test_encode_latent_requires_bottleneck():
    m = tiny_cae()
    assert m.bottleneck is None
    with pytest.raises(ConfigError, match="bottleneck"):
        encode_latent(m, np.zeros((1, 1, 8, 8), dtype=np.float32))


def test_decide_anomaly_threshold_table_style():
    ts = ThresholdSet(0.005, None, "recon_only")
    assert decide_anomaly(0.006, None, ts) == "defect"
    assert decide_anomaly(0.004, None, ts) == "good"


def test_decide_anomaly_at_threshold_is_good():
    ts = ThresholdSet(0.005, -100.0, "or")
    assert decide_anomaly(0.005, -100.0, ts) == "good"  # strict inequalities


def test_decide_anomaly_and_rule_needs_both():
    ts = ThresholdSet(0.005, -100.0, "and")
    assert decide_anomaly(0.006, -99.0, ts) == "good"  # only recon fired
    assert decide_anomaly(0.006, -101.0, ts) == "defect"


def test_decide_anomaly_or_rule_single_flag():
    ts = ThresholdSet(0.005, -100.0, "or")
    assert decide_anomaly(0.004, -101.0, ts) == "defect"


def test_decide_anomaly_monotone_in_scores():
    ts = ThresholdSet(0.5, -10.0, "or")
    rng = np.random.default_rng(7)
    for _ in range(200):
        re = float(rng.uniform(0, 1))
        kd = float(rng.uniform(-20, 0))
        base = decide_anomaly(re, kd, ts)
        higher = decide_anomaly(re + float(rng.uniform(0, 0.5)), kd, ts)
        if base == "defect":
            assert higher == "defect"  # more error never flips to good
        denser = decide_anomaly(re, kd + float(rng.uniform(0, 5)), ts)
        if base == "good":
            assert denser == "good"  # more density never flips to defect


def test_threshold_set_validates_rule_and_presence():
    with pytest.raises(ConfigError, match="combine rule"):
        ThresholdSet(0.1, None, "xor")
    with pytest.raises(ConfigError, match="KDE threshold"):
        ThresholdSet(0.1, None, "or")
    with pytest.raises(ConfigError, match="reconstruction threshold"):
        ThresholdSet(None, -5.0, "recon_only")


def test_calibrate_single_image_thresholds_equal_scores():
    m = build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=16)
    x = np.random.default_rng(8).uniform(0, 1, (1, 1, 32, 32)).astype(np.float32)
    kde = fit_kde(encode_latent(m, x), bandwidth=1.0)
    ts = calibrate_thresholds(m, x, kde=kde, percentile=95.0)
    np.testing.assert_allclose(ts.recon_threshold, score_batch(m, x)[0][0], rtol=1e-12)
    from anomdet.pipelines import kde_log_density

    np.testing.assert_allclose(
        ts.kde_threshold, kde_log_density(kde, encode_latent(m, x)[0]), rtol=1e-12
    )


def test_calibrate_p100_is_max_error():
    m = tiny_cae(seed=8)
    x = np.random.default_rng(9).uniform(0, 1, (6, 1, 8, 8)).astype(np.float32)
    ts = calibrate_thresholds(m, x, percentile=100.0)
    np.testing.assert_allclose(ts.recon_threshold, score_batch(m, x)[0].max())
    assert ts.combine_rule == "recon_only"


def test_calibrate_empty_rejected():
    m = tiny_cae()
    with pytest.raises(DataError, match="empty"):
        calibrate_thresholds(m, np.zeros((0, 1, 8, 8), dtype=np.float32))


def test_classify_supervised_boundaries():
    m = build_cnn(CnnConfig(input_shape=(1, 64, 64)), seed=17)
    x = np.zeros((1, 1, 64, 64), dtype=np.float32)
    label, prob = classify_supervised(m, x, cutoff=0.5)
    assert prob == 0.5  # zero biases at init
    assert label == "defect"  # inclusive boundary
    label, _ = classify_supervised(m, x, cutoff=1.0)
    assert label == "good"
