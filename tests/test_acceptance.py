"""Acceptance gate: one test per criterion A1-A9, each printing a verdict.

The fast criteria are formula/oracle checks; A3/A4/A6/A7 train real models
on the deterministic synthetic benchmark and dominate the suite's runtime.
Every check runs at a pinned tolerance; the `criterion` fixture records one
PASS/FAIL line per criterion and echoes them in the terminal summary.
"""

import math
import time
from fractions import Fraction

import numpy as np

import oracles
from anomdet.data import Dataset, ImageSample, generate_synthetic_set, inject_gaussian_noise, split_validation
from anomdet.gan import (
    GanPair,
    build_discriminator,
    build_generator,
    generate_samples,
    to_gan_range,
    train_gan,
)
from anomdet.gan.losses import discriminator_loss_grads, generator_loss_grad
from anomdet.metrics import ConfusionCounts, confusion_counts, f1_score, roc_auc
from anomdet.nn import LayerSpec, ModelGraph, bce, load_model, mse, save_model
from anomdet.nn import functional as F
from anomdet.pipelines import (
    ThresholdSet,
    build_cnn,
    build_kd_cae,
    build_ni_cae,
    calibrate_thresholds,
    decide_anomaly,
    encode_latent,
    fit_kde,
    kde_log_densities,
    score_batch,
    ssim,
    train,
)
from anomdet.pipelines.scoring import KdeModel
from gan_toy import (
    GaussianMixture1D,
    ToyDensityPair,
    fit_toy_discriminator,
    optimal_discriminator_oracle,
)

GRAD_TOL = 1e-3
FD_H = 1e-4


# --------------------------------------------------------------- A1 helpers


def _fd_matches(f, x, analytic) -> bool:
    fd = oracles.fd_gradient(f, x, h=FD_H)
    return oracles.rel_err(analytic, fd) < GRAD_TOL


def _check_conv2d(rng) -> bool:
    n, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k, stride, padding = rng.integers(1, 4), rng.integers(1, 3), rng.integers(0, 2)
    h = int(rng.integers(max(k - 2 * padding, 1), 7))
    x = rng.standard_normal((n, cin, h, h))
    w = rng.standard_normal((cout, cin, k, k))
    b = rng.standard_normal(cout)
    y0, cache = F.conv2d(x, w, b, stride, padding)
    r = rng.standard_normal(y0.shape)

    def loss():
        return oracles.inner(F.conv2d(x, w, b, stride, padding)[0], r)

    dx, dw, db = F.conv2d_backward(r, w, cache)
    return _fd_matches(loss, x, dx) and _fd_matches(loss, w, dw) and _fd_matches(loss, b, db)


def _check_conv2d_transpose(rng) -> bool:
    n, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k, stride = rng.integers(2, 5), rng.integers(1, 3)
    padding = int(rng.integers(0, (k + 1) // 2))
    h = int(rng.integers(2, 5))
    x = rng.standard_normal((n, cin, h, h))
    w = rng.standard_normal((cin, cout, k, k))
    b = rng.standard_normal(cout)
    y0, cache = F.conv2d_transpose(x, w, b, stride, padding)
    r = rng.standard_normal(y0.shape)

    def loss():
        return oracles.inner(F.conv2d_transpose(x, w, b, stride, padding)[0], r)

    dx, dw, db = F.conv2d_transpose_backward(r, w, cache)
    return _fd_matches(loss, x, dx) and _fd_matches(loss, w, dw) and _fd_matches(loss, b, db)


def _check_maxpool(rng) -> bool:
    n, c = rng.integers(1, 3), rng.integers(1, 4)
    h = 2 * int(rng.integers(1, 4))
    x = rng.standard_normal((n, c, h, h))  # continuous: no ties a.s.
    y0, cache = F.maxpool2d(x)
    r = rng.standard_normal(y0.shape)

    def loss():
        return oracles.inner(F.maxpool2d(x)[0], r)

    return _fd_matches(loss, x, F.maxpool2d_backward(r, cache))


def _check_dense(rng) -> bool:
    n, d, u = rng.integers(1, 4), rng.integers(1, 7), rng.integers(1, 6)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((u, d))
    b = rng.standard_normal(u)
    r = rng.standard_normal((n, u))

    def loss():
        return oracles.inner(F.dense(x, w, b)[0], r)

    _, cache = F.dense(x, w, b)
    dx, dw, db = F.dense_backward(r, w, cache)
    return _fd_matches(loss, x, dx) and _fd_matches(loss, w, dw) and _fd_matches(loss, b, db)


def _check_activation(rng, name) -> bool:
    x = rng.standard_normal((2, 5))
    x = x + np.sign(x) * 0.05  # keep clear of the relu/leaky kink
    _, cache = F.activate(x, name)
    r = rng.standard_normal(x.shape)

    def loss():
        return oracles.inner(F.activate(x, name)[0], r)

    return _fd_matches(loss, x, F.activate_backward(r, cache))


def _check_batchnorm(rng, mode) -> bool:
    n, c, h = rng.integers(2, 5), rng.integers(1, 4), rng.integers(1, 4)
    x = rng.standard_normal((n, c, h, h))
    gamma = rng.standard_normal(c) + 2.0
    beta = rng.standard_normal(c)
    rmean = rng.standard_normal(c) * 0.1
    rvar = rng.random(c) + 0.5
    r = rng.standard_normal(x.shape)

    def loss():
        # fresh buffer copies: train mode mutates them in place
        y, _ = F.batchnorm(x, gamma, beta, rmean.copy(), rvar.copy(), mode)
        return oracles.inner(y, r)

    _, cache = F.batchnorm(x, gamma, beta, rmean.copy(), rvar.copy(), mode)
    dx, dg, db = F.batchnorm_backward(r, cache)
    return _fd_matches(loss, x, dx) and _fd_matches(loss, gamma, dg) and _fd_matches(loss, beta, db)


def _check_losses(rng) -> bool:
    pred = rng.random((3, 4)) * 0.9 + 0.05  # inside the bce clamp
    target = rng.random((3, 4))
    v_mse, g_mse = mse(pred, target)
    v_bce, g_bce = bce(pred, target)
    values_ok = (
        abs(v_mse - oracles.mse_naive(pred, target)) < 1e-10
        and abs(v_bce - oracles.bce_naive(pred, target)) < 1e-10
    )

    def f_mse():
        return mse(pred, target)[0]

    def f_bce():
        return bce(pred, target)[0]

    return values_ok and _fd_matches(f_mse, pred, g_mse) and _fd_matches(f_bce, pred, g_bce)


def _check_graph_composite(rng, seed) -> bool:
    """A whole tiny model (conv, batchnorm, relu, pool, flatten, dense,
    sigmoid): finite differences on every parameter through backward()."""
    specs = [
        LayerSpec("conv2d", filters=2, kernel=3, stride=1, padding=1),
        LayerSpec("batchnorm"),
        LayerSpec("activation", activation="relu"),
        LayerSpec("maxpool2d"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=3),
        LayerSpec("activation", activation="sigmoid"),
    ]
    m = ModelGraph(specs, (1, 4, 4), rng_seed=seed, model_kind="cnn")
    for k in m.params:
        m.params[k] = m.params[k].astype(np.float64)
    x = rng.standard_normal((2, 1, 4, 4))
    r = rng.standard_normal((2, 3))

    def loss():
        return oracles.inner(m.forward(x, mode="train"), r)

    caches: list = []
    m.forward(x, mode="train", caches=caches)
    _, grads = m.backward(r, caches)
    return all(_fd_matches(loss, m.params[k], grads[k]) for k in m.params)


def test_a1_gradient_suite(criterion):
    t0 = time.monotonic()
    per_kind = 20
    results = {}
    checks = {
        "conv2d": _check_conv2d,
        "conv2d_transpose": _check_conv2d_transpose,
        "maxpool2d": _check_maxpool,
        "dense": _check_dense,
        "relu": lambda r: _check_activation(r, "relu"),
        "leaky_relu": lambda r: _check_activation(r, "leaky_relu"),
        "sigmoid": lambda r: _check_activation(r, "sigmoid"),
        "tanh": lambda r: _check_activation(r, "tanh"),
        "batchnorm_train": lambda r: _check_batchnorm(r, "train"),
        "batchnorm_eval": lambda r: _check_batchnorm(r, "eval"),
        "losses": _check_losses,
        "graph": lambda r: _check_graph_composite(r, seed=int(r.integers(1 << 30))),
    }
    for name, fn in checks.items():
        results[name] = all(fn(np.random.default_rng(1000 + 37 * i)) for i in range(per_kind))
    dt = time.monotonic() - t0
    bad = [k for k, ok in results.items() if not ok]
    criterion(
        "A1 gradient suite",
        not bad and dt < 30.0,
        f"{per_kind} instances x {len(checks)} kinds, rel err < {GRAD_TOL}, "
        f"{dt:.1f}s < 30s" + (f"; failing: {bad}" if bad else ""),
    )


# ------------------------------------------------------------------ A2


def _pairwise_auc(scores, labels) -> float:
    pos = [s for s, l in zip(scores, labels) if l == "defect"]
    neg = [s for s, l in zip(scores, labels) if l == "good"]
    acc = 0.0
    for p in pos:
        for q in neg:
            acc += 1.0 if p > q else 0.5 if p == q else 0.0
    return acc / (len(pos) * len(neg))


def test_a2_formula_suite(criterion):
    rng = np.random.default_rng(2)
    f1_exact = 0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 1000, 4))
        got = f1_score(ConfusionCounts(tp, fp, tn, fn))
        denom = 2 * tp + fp + fn
        want = 0.0 if denom == 0 else float(Fraction(2 * tp, denom))
        f1_exact += got == want
    auc_exact = 0
    for i in range(200):
        n = int(rng.integers(2, 40))
        labels = ["defect" if v else "good" for v in rng.integers(0, 2, n)]
        labels[0], labels[1] = "defect", "good"  # both classes present
        scores = (rng.integers(0, 6, n) / 5.0) if i % 2 else rng.standard_normal(n)
        auc_exact += roc_auc(scores, labels) == _pairwise_auc(scores, labels)
    d_half = np.full(8, 0.5)
    j_d = discriminator_loss_grads(d_half, d_half)[0]
    j_g = generator_loss_grad(d_half)[0]
    gan_ok = abs(j_d - math.log(2.0)) < 1e-9 and abs(j_g - 0.5 * math.log(2.0)) < 1e-9
    criterion(
        "A2 formula suite",
        f1_exact == 1000 and auc_exact == 200 and gan_ok,
        f"f1 exact {f1_exact}/1000, auc exact {auc_exact}/200, "
        f"substitution |j_d - log2| = {abs(j_d - math.log(2.0)):.1e} < 1e-9",
    )


# ----------------------------------------- shared synthetic-benchmark bits


def _subset(ds, samples):
    return Dataset(ds.class_name, list(samples), ds.skipped)


def _good_train_val(ds, seed):
    good = [s for s in ds.split_samples("train") if s.label == "good"]
    tr, va = split_validation(_subset(ds, good), 0.1, seed=seed)
    return tr.stack(), va.stack()


def _test_f1(model, ds, thresholds, kde=None):
    samples = ds.split_samples("test")
    x = ds.stack("test")
    errs = score_batch(model, x)[0]
    kvals = kde_log_densities(kde, encode_latent(model, x)) if kde is not None else None
    decisions = [
        decide_anomaly(float(errs[i]), None if kvals is None else float(kvals[i]), thresholds)
        for i in range(len(samples))
    ]
    return f1_score(confusion_counts([s.label for s in samples], decisions))


# ------------------------------------------------------------------ A3


def test_a3_kd_cae_end_to_end(criterion):
    t0 = time.monotonic()
    seed = 101
    ds = generate_synthetic_set("disk", 100, 40, 0.5, 64, seed=seed)
    x, vx = _good_train_val(ds, seed)
    model = build_kd_cae((1, 64, 64), seed=seed)
    history = train(model, x, x, epochs=100, batch_size=16, loss_kind="mse",
                    learning_rate=1e-3, val_x=vx, val_t=vx, patience=5, seed=seed)
    kde = fit_kde(encode_latent(model, x))
    ts = calibrate_thresholds(model, vx, kde=kde, percentile=95.0, combine_rule="or")
    f1 = _test_f1(model, ds, ts, kde)
    dt = time.monotonic() - t0
    criterion(
        "A3 kd-cae synthetic end-to-end",
        f1 >= 0.85 and history.epochs_run <= 100 and dt < 600.0,
        f"f1={f1:.4f} >= 0.85, {history.epochs_run} epochs <= 100, {dt:.0f}s < 600s",
    )


# ------------------------------------------------------------------ A4


def test_a4_noise_degradation_direction(criterion):
    t0 = time.monotonic()
    pairs = []
    for seed in (0, 1, 2):
        ds = generate_synthetic_set("disk", 100, 40, 0.5, 64, seed=seed)
        ds, _ = inject_gaussian_noise(ds, 0.10, 0.0, 0.001, seed=seed, target_split="train")
        x, vx = _good_train_val(ds, seed)
        model = build_ni_cae((1, 64, 64), seed=seed)
        train(model, x, x, epochs=40, batch_size=16, loss_kind="mse",
              learning_rate=1e-3, val_x=vx, val_t=vx, patience=5, seed=seed)
        ts = calibrate_thresholds(model, vx, percentile=95.0, combine_rule="recon_only")
        clean = _test_f1(model, ds, ts)
        noisy_ds, _ = inject_gaussian_noise(ds, 0.10, 0.0, 0.001, seed=seed + 1,
                                            target_split="test")
        noisy = _test_f1(model, noisy_ds, ts)
        pairs.append((seed, clean, noisy))
    ok = all(noisy <= clean for _, clean, noisy in pairs)
    detail = ", ".join(f"seed {s}: {n:.4f} <= {c:.4f}" for s, c, n in pairs)
    criterion("A4 ni-cae noise direction", ok,
              f"{detail} ({time.monotonic() - t0:.0f}s)")


# ------------------------------------------------------------------ A5


def test_a5_optimal_discriminator(criterion):
    t0 = time.monotonic()
    toy = ToyDensityPair(
        p_data=GaussianMixture1D(means=(-1.5, 0.6), stds=(0.5, 0.6), weights=(0.5, 0.5)),
        p_model=GaussianMixture1D(means=(1.5,), stds=(0.8,), weights=(1.0,)),
    )
    grid = np.linspace(-5.0, 5.0, 201)
    model = fit_toy_discriminator(toy, n_per_side=100_000, seed=0)
    learned = model.forward(grid.astype(np.float32)[:, None], mode="eval")[:, 0]
    mae = float(np.mean(np.abs(learned - optimal_discriminator_oracle(toy, grid))))

    same = ToyDensityPair(p_data=toy.p_data, p_model=toy.p_data)
    identical_ok = bool(np.all(optimal_discriminator_oracle(same, grid) == 0.5))
    criterion(
        "A5 optimal-discriminator match",
        mae < 0.05 and identical_ok,
        f"MAE={mae:.4f} < 0.05 on 201-point grid at 1e5 samples/side; "
        f"identical densities -> 0.5 everywhere: {identical_ok} "
        f"({time.monotonic() - t0:.0f}s)",
    )


# ------------------------------------------------------------------ A6


A6_BATCH = 32


def _a6_run():
    ds = generate_synthetic_set("disk", 100, 2, 0.5, 32, seed=41)
    x = to_gan_range(np.stack([s.pixels[0] for s in ds.split_samples("train")
                               if s.label == "good"]))
    # learning rates from the equilibrium sweep: symmetric 2e-4 lets the
    # discriminator saturate, which would pass the pooled-mean band only
    # degenerately
    pair = GanPair(build_generator((1, 32, 32), 100, 64, seed=606),
                   build_discriminator((1, 32, 32), 64, seed=606))
    train_gan(pair, x, 2000, batch_size=A6_BATCH, k_disc_steps=1,
              lr_generator=2e-4, lr_discriminator=3e-5, seed=606)
    return pair


def test_a6_dcgan_smoke(criterion):
    t0 = time.monotonic()
    pair = _a6_run()
    tail = pair.history.records[-200:]
    d_real = float(np.mean([r.mean_d_real for r in tail]))
    d_fake = float(np.mean([r.mean_d_fake for r in tail]))
    pooled = 0.5 * (d_real + d_fake)
    imgs = generate_samples(pair.generator, 16, 123, A6_BATCH)
    std = float(imgs.std())

    again = _a6_run()
    bitwise = again.history.records == pair.history.records and all(
        np.array_equal(again.generator.params[k], pair.generator.params[k])
        for k in pair.generator.params
    )
    criterion(
        "A6 dcgan smoke",
        abs(pooled - 0.5) <= 0.15 and std > 0.01 and bitwise
        and pair.history.aborted_at is None,
        f"pooled D={pooled:.4f} in 0.5+-0.15 (real {d_real:.3f} / fake {d_fake:.3f}), "
        f"sample std={std:.4f} > 0.01, rerun bitwise={bitwise} "
        f"({time.monotonic() - t0:.0f}s)",
    )


# ------------------------------------------------------------------ A7


def test_a7_cnn_sanity(criterion):
    t0 = time.monotonic()
    seed = 77
    ds = generate_synthetic_set("disk", 200, 40, 0.5, 64, seed=seed, train_defect_rate=0.5)
    tr, va = split_validation(_subset(ds, ds.split_samples("train")), 0.1, seed=seed)
    x, vx = tr.stack(), va.stack()
    t = np.array([[1.0 if s.label == "defect" else 0.0] for s in tr.samples], dtype=np.float32)
    vt = np.array([[1.0 if s.label == "defect" else 0.0] for s in va.samples], dtype=np.float32)
    model = build_cnn((1, 64, 64), seed=seed)
    train(model, x, t, epochs=20, batch_size=16, loss_kind="bce",
          learning_rate=1e-3, val_x=vx, val_t=vt, patience=5, seed=seed)
    probs = model.forward(ds.stack("test"), mode="eval")[:, 0]
    decisions = ["defect" if p >= 0.5 else "good" for p in probs]
    f1 = f1_score(confusion_counts([s.label for s in ds.split_samples("test")], decisions))
    criterion("A7 cnn pipeline sanity", f1 >= 0.8,
              f"f1={f1:.4f} >= 0.8 on 200 labeled train images "
              f"({time.monotonic() - t0:.0f}s)")


# ------------------------------------------------------------------ A8


def test_a8_determinism_and_persistence(criterion, tmp_path):
    seed = 21
    ds = generate_synthetic_set("disk", 12, 8, 0.5, 32, seed=seed)
    x, vx = _good_train_val(ds, seed)
    model = build_kd_cae((1, 32, 32), seed=seed)
    train(model, x, x, epochs=3, batch_size=4, loss_kind="mse",
          learning_rate=1e-3, seed=seed)
    kde = fit_kde(encode_latent(model, x))
    ts = calibrate_thresholds(model, vx, kde=kde, percentile=95.0, combine_rule="or")

    tx = ds.stack("test")
    errs = score_batch(model, tx)[0]
    dens = kde_log_densities(kde, encode_latent(model, tx))
    labels = [s.label for s in ds.split_samples("test")]
    f1 = f1_score(confusion_counts(
        labels, [decide_anomaly(float(e), float(k), ts) for e, k in zip(errs, dens)]))
    auc = roc_auc(errs, labels)

    path = tmp_path / "model.anom"
    save_model(model, path)
    reloaded = load_model(path)
    errs2 = score_batch(reloaded, tx)[0]
    dens2 = kde_log_densities(KdeModel(kde.latents, kde.bandwidth),
                              encode_latent(reloaded, tx))
    f1_2 = f1_score(confusion_counts(
        labels, [decide_anomaly(float(e), float(k), ts) for e, k in zip(errs2, dens2)]))
    auc2 = roc_auc(errs2, labels)

    path2 = tmp_path / "again.anom"
    save_model(reloaded, path2)
    ok = (
        np.array_equal(errs, errs2)
        and np.array_equal(dens, dens2)
        and f1 == f1_2
        and auc == auc2
        and all(np.array_equal(model.params[k], reloaded.params[k]) for k in model.params)
        and path.read_bytes() == path2.read_bytes()
    )
    criterion("A8 determinism and persistence", ok,
              f"save/load/eval bitwise: scores, f1={f1:.4f}, auc={auc:.4f}, "
              f"file round-trip exact")


# ------------------------------------------------------------------ A9


def _tiny_dataset(k):
    px = np.zeros((1, 1, 2, 2), dtype=np.float32)
    return Dataset("t", [ImageSample(px, "good", "", "train", f"s{i}") for i in range(k)])


def test_a9_invariant_suites(criterion):
    t0 = time.monotonic()
    rng = np.random.default_rng(9)

    cardinality_ok = all(
        len(inject_gaussian_noise(_tiny_dataset(k), 0.10, 0.0, 0.001, seed=k)[1]
            .selected_indices) == k // 10
        for k in range(1, 501)
    )

    ssim_ok = all(
        ssim(img, img)[0] == 1.0
        for img in (rng.random((16, 16)).astype(np.float32) for _ in range(10))
    )

    latents = rng.standard_normal((30, 1))
    kde = fit_kde(latents)
    span = np.linspace(latents.min() - 6 * kde.bandwidth,
                       latents.max() + 6 * kde.bandwidth, 2001)
    mass = float(np.trapezoid(np.exp(kde_log_densities(kde, span[:, None])), span))
    kde_ok = abs(mass - 1.0) < 1e-3

    adjoint_ok = True
    for i in range(20):
        r = np.random.default_rng(900 + i)
        n, cin, cout = r.integers(1, 3), r.integers(1, 4), r.integers(1, 4)
        k, stride, padding = r.integers(1, 4), r.integers(1, 3), r.integers(0, 2)
        h = int(r.integers(max(k - 2 * padding, 1), 8))
        x = r.standard_normal((n, cin, h, h))
        w = r.standard_normal((cout, cin, k, k))
        y0, cache = F.conv2d(x, w, np.zeros(cout), stride, padding)
        y = r.standard_normal(y0.shape)
        dx, _, _ = F.conv2d_backward(y, w, cache)
        lhs, rhs = oracles.inner(y0, y), oracles.inner(x, dx)
        adjoint_ok &= abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    mono_ok = True
    for _ in range(200):
        ts = ThresholdSet(float(rng.random()), float(rng.standard_normal()), "or")
        recon, kd = float(rng.random()), float(rng.standard_normal())
        if decide_anomaly(recon, kd, ts) == "defect":
            # more reconstruction error / less density must stay anomalous
            mono_ok &= decide_anomaly(recon + float(rng.random()), kd, ts) == "defect"
            mono_ok &= decide_anomaly(recon, kd - float(rng.random()), ts) == "defect"

    parts = {
        "noise cardinality k//10 for K=1..500": cardinality_ok,
        "ssim(x,x)=1": ssim_ok,
        "kde quadrature": kde_ok,
        "conv adjointness": adjoint_ok,
        "decision monotonicity": mono_ok,
    }
    bad = [name for name, ok in parts.items() if not ok]
    criterion("A9 invariant suites", not bad,
              (f"all {len(parts)} suites green" if not bad else f"failing: {bad}")
              + f" ({time.monotonic() - t0:.0f}s)")
