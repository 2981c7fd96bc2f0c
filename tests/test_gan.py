"""GAN pair construction, objectives, alternating training, toy oracle."""

import math

import numpy as np
import pytest

from anomdet.data import generate_synthetic_set, read_pgm
from anomdet.errors import ConfigError, DataError, ShapeError
from anomdet.gan import (
    GanPair,
    build_discriminator,
    build_generator,
    contact_sheet,
    from_gan_range,
    generate_samples,
    to_gan_range,
    train_gan,
)
from anomdet.gan.losses import discriminator_loss_grads, generator_loss_grad
from anomdet.rng import stream
from gan_toy import (
    GaussianMixture1D,
    ToyDensityPair,
    fit_toy_discriminator,
    optimal_discriminator_oracle,
)
from oracles import fd_gradient, rel_err

SHAPE = (1, 32, 32)
BATCH = 4  # the small pair's training and sampling batch


def small_pair():
    """A 32 px pair of base width 8 and the default z width of 100."""
    return GanPair(build_generator(SHAPE, 100, 8, 0), build_discriminator(SHAPE, 8, 0))


# ---------------------------------------------------------------- builders


def test_generator_output_shape_and_range():
    g = build_generator(SHAPE, 100, 8, 0)
    z = np.random.default_rng(0).standard_normal((3, 100)).astype(np.float32)
    y = g.forward(z)
    assert y.shape == (3, 1, 32, 32)
    assert y.min() >= -1.0 and y.max() <= 1.0


def test_generator_sensitive_to_single_coordinate():
    g = build_generator(SHAPE, 100, 8, 0)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((1, 100)).astype(np.float32)
    z2 = z.copy()
    z2[0, 17] += 0.5
    a = g.forward(z)
    b = g.forward(z2)
    assert float(np.linalg.norm(a - b)) > 0.0


def test_discriminator_range_and_init_midpoint():
    d = build_discriminator(SHAPE, 8, 0)
    x = np.random.default_rng(2).uniform(-1, 1, (4, 1, 32, 32)).astype(np.float32)
    p = d.forward(x)
    assert np.all((p > 0) & (p < 1))
    p0 = d.forward(np.zeros((1, 1, 32, 32), dtype=np.float32))
    assert float(p0[0, 0]) == 0.5  # zero final bias, zero input


def test_architecture_lint():
    g = build_generator(SHAPE, 100, 8, 0)
    d = build_discriminator(SHAPE, 8, 0)
    g_kinds = [s.kind for s in g.specs]
    d_kinds = [s.kind for s in d.specs]
    assert "maxpool2d" not in g_kinds and "maxpool2d" not in d_kinds
    assert g_kinds.count("dense") == 1  # only the z projection
    assert g.specs[-1].activation == "tanh"
    assert d.specs[-1].activation == "sigmoid"
    d_hidden = [s.activation for s in d.specs[:-1] if s.kind == "activation"]
    assert set(d_hidden) == {"leaky_relu"}
    g_hidden = [s.activation for s in g.specs[:-1] if s.kind == "activation"]
    assert set(g_hidden) == {"relu"}


def test_config_validation():
    with pytest.raises(ConfigError, match="z_dim"):
        build_generator(SHAPE, 0, 8, 0)
    for bad in (lambda s, b: build_generator(s, 100, b, 0),
                lambda s, b: build_discriminator(s, b, 0)):
        with pytest.raises(ConfigError, match="power of two"):
            bad((1, 48, 48), 8)
        with pytest.raises(ConfigError, match=">= 32"):
            bad((1, 16, 16), 8)
        with pytest.raises(ConfigError, match="square"):
            bad((1, 32, 64), 8)
        with pytest.raises(ConfigError, match="channels must be 1 or 3"):
            bad((2, 32, 32), 8)
        with pytest.raises(ConfigError, match="divisible"):
            bad(SHAPE, 6)
        with pytest.raises(ConfigError, match="divisible"):
            bad(SHAPE, 0)
    x = disk_batch()
    with pytest.raises(ConfigError, match="k_disc_steps"):
        train_gan(small_pair(), x, 1, batch_size=BATCH, k_disc_steps=0)
    with pytest.raises(ConfigError, match="batch_size"):
        train_gan(small_pair(), x, 1, batch_size=1)


def test_discriminator_loss_gradient_full_fd():
    """d/dtheta of J_D through the whole discriminator passes central FD."""
    d = build_discriminator(SHAPE, 4, seed=3)
    for k in d.params:
        d.params[k] = d.params[k].astype(np.float64)
    rng = np.random.default_rng(4)
    real = rng.uniform(-1, 1, (2, 1, 32, 32))
    fake = rng.uniform(-1, 1, (2, 1, 32, 32))

    def loss():
        dr = d.forward(real, mode="train")
        df = d.forward(fake, mode="train")
        j, _, _ = discriminator_loss_grads(dr, df)
        return j

    caches_r, caches_f = [], []
    dr = d.forward(real, mode="train", caches=caches_r)
    df = d.forward(fake, mode="train", caches=caches_f)
    _, g_r, g_f = discriminator_loss_grads(dr, df)
    _, grads_r = d.backward(g_r.reshape(dr.shape), caches_r)
    _, grads_f = d.backward(g_f.reshape(df.shape), caches_f)
    for k in grads_r:
        analytic = grads_r[k] + grads_f[k]
        numeric = fd_gradient(loss, d.params[k])
        assert rel_err(analytic, numeric) < 1e-3, k


# ------------------------------------------------------------------ losses


def scalar_loop_losses(d_real, d_fake, eps=1e-7):
    def cl(v):
        return min(max(float(v), eps), 1.0 - eps)

    j_d = -0.5 * sum(math.log(cl(v)) for v in d_real) / len(d_real)
    j_d += -0.5 * sum(math.log(1.0 - cl(v)) for v in d_fake) / len(d_fake)
    j_g = -0.5 * sum(math.log(cl(v)) for v in d_fake) / len(d_fake)
    return j_d, j_g


def step_losses(d_real, d_fake):
    """(J_D, J_G) as the training step computes them."""
    return discriminator_loss_grads(d_real, d_fake)[0], generator_loss_grad(d_fake)[0]


def test_losses_substitution_values():
    j_d, j_g = step_losses(np.full(8, 0.5), np.full(8, 0.5))
    assert abs(j_d - math.log(2)) < 1e-12
    assert abs(j_g - 0.5 * math.log(2)) < 1e-12


def test_perfect_discriminator_loss_near_zero():
    j_d, _ = step_losses(np.ones(5), np.zeros(5))
    assert 0 <= j_d < 1e-6  # only the clamp distance remains


def test_losses_match_scalar_loop():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = rng.uniform(0, 1, rng.integers(1, 9))
        f = rng.uniform(0, 1, rng.integers(1, 9))
        got = step_losses(r, f)
        want = scalar_loop_losses(r, f)
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12


def test_nonsaturating_loss_strictly_monotone():
    rng = np.random.default_rng(6)
    for _ in range(50):
        f = rng.uniform(0.01, 0.98, 6)
        bumped = f + rng.uniform(1e-4, 0.01, 6)
        assert step_losses(np.full(3, 0.5), bumped)[1] < step_losses(np.full(3, 0.5), f)[1]


def test_loss_grads_match_fd():
    rng = np.random.default_rng(8)
    r = rng.uniform(0.05, 0.95, 6)
    f = rng.uniform(0.05, 0.95, 6)
    _, g_r, g_f = discriminator_loss_grads(r, f)
    num_r = fd_gradient(lambda: discriminator_loss_grads(r, f)[0], r, h=1e-6)
    num_f = fd_gradient(lambda: discriminator_loss_grads(r, f)[0], f, h=1e-6)
    assert rel_err(g_r, num_r) < 1e-4
    assert rel_err(g_f, num_f) < 1e-4
    _, gg = generator_loss_grad(f)
    num_g = fd_gradient(lambda: generator_loss_grad(f)[0], f, h=1e-6)
    assert rel_err(gg, num_g) < 1e-4


# ---------------------------------------------------------------- training


def disk_batch(n=12, size=32, seed=9):
    ds = generate_synthetic_set("disk", n, 1, 0.0, size, seed=seed)
    return to_gan_range(ds.stack("train"))


def test_train_zero_steps_is_identity():
    pair = small_pair()
    before = {k: v.copy() for k, v in pair.generator.params.items()}
    train_gan(pair, disk_batch(), 0, batch_size=BATCH)
    for k in before:
        np.testing.assert_array_equal(pair.generator.params[k], before[k])
    assert pair.history.records == []


def test_train_records_history():
    pair = small_pair()
    train_gan(pair, disk_batch(), 4, batch_size=BATCH)
    h = pair.history
    assert [r.step for r in h.records] == [1, 2, 3, 4]
    for r in h.records:
        assert np.isfinite(r.j_d) and np.isfinite(r.j_g)
        assert 0 < r.mean_d_real < 1 and 0 < r.mean_d_fake < 1
    assert h.aborted_at is None


def test_train_bitwise_deterministic():
    runs = []
    for _ in range(2):
        pair = small_pair()
        train_gan(pair, disk_batch(), 3, batch_size=BATCH)
        runs.append(pair)
    a, b = runs
    for k in a.generator.params:
        np.testing.assert_array_equal(a.generator.params[k], b.generator.params[k])
    for k in a.discriminator.params:
        np.testing.assert_array_equal(a.discriminator.params[k], b.discriminator.params[k])
    assert a.history.records == b.history.records


def test_train_nan_aborts_and_restores():
    pair = small_pair()
    init = {k: v.copy() for k, v in pair.generator.params.items()}
    x = disk_batch()
    x[:, 0, 0, 0] = np.nan  # sails past the range check, poisons every batch
    train_gan(pair, x, 3, batch_size=BATCH)
    assert pair.history.aborted_at == 1
    assert pair.history.records == []
    for k in init:
        np.testing.assert_array_equal(pair.generator.params[k], init[k])


def test_train_rejects_out_of_range_and_bad_shape():
    pair = small_pair()
    with pytest.raises(DataError, match=r"\[-1,1\]"):
        train_gan(pair, np.full((8, 1, 32, 32), 1.5, dtype=np.float32), 1, batch_size=BATCH)
    with pytest.raises(ShapeError, match="images"):
        train_gan(pair, np.zeros((8, 1, 16, 16), dtype=np.float32), 1, batch_size=BATCH)
    with pytest.raises(DataError, match="at least one batch"):
        train_gan(pair, np.zeros((2, 1, 32, 32), dtype=np.float32), 1, batch_size=BATCH)


def test_range_maps_round_trip():
    x = np.random.default_rng(10).uniform(0, 1, (2, 1, 4, 4)).astype(np.float32)
    np.testing.assert_allclose(from_gan_range(to_gan_range(x)), x, atol=1e-6)
    assert to_gan_range(np.zeros(1))[0] == -1.0
    assert to_gan_range(np.ones(1))[0] == 1.0


def test_history_csv_round_trip(tmp_path):
    pair = small_pair()
    train_gan(pair, disk_batch(), 2, batch_size=BATCH)
    path = tmp_path / "history.csv"
    pair.history.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,j_d,j_g,mean_d_real,mean_d_fake"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


# -------------------------------------------------------------------- toy


def test_mixture_quadrature_normalized():
    for gm in (
        GaussianMixture1D((0.0,), (1.0,), (1.0,)),
        GaussianMixture1D((-2.0, 1.0), (0.5, 1.2), (0.3, 0.7)),
    ):
        assert abs(gm.quadrature_mass() - 1.0) < 1e-6
        assert np.all(gm.pdf(np.linspace(-5, 5, 101)) >= 0)


def test_mixture_validation():
    with pytest.raises(ConfigError, match="sum to 1"):
        GaussianMixture1D((0.0,), (1.0,), (0.7,))
    with pytest.raises(ConfigError, match="positive"):
        GaussianMixture1D((0.0,), (0.0,), (1.0,))
    with pytest.raises(ConfigError, match="equal-length"):
        GaussianMixture1D((0.0, 1.0), (1.0,), (1.0,))


def test_oracle_identical_densities_is_half_everywhere():
    gm = GaussianMixture1D((0.0, 2.0), (1.0, 0.5), (0.4, 0.6))
    toy = ToyDensityPair(gm, gm)
    grid = np.linspace(-6, 6, 201)
    np.testing.assert_array_equal(optimal_discriminator_oracle(toy, grid), 0.5)


def test_oracle_two_to_one_ratio_point():
    # p = N(0,1), q = N(mu,1): the point where q = p/2 gives D* = 2/3
    mu = 2.0
    toy = ToyDensityPair(
        GaussianMixture1D((0.0,), (1.0,), (1.0,)),
        GaussianMixture1D((mu,), (1.0,), (1.0,)),
    )
    x_star = (mu * mu / 2 - math.log(2)) / mu
    assert abs(optimal_discriminator_oracle(toy, x_star) - 2.0 / 3.0) < 1e-12


def test_oracle_identity_on_grid():
    toy = ToyDensityPair(
        GaussianMixture1D((-1.0, 0.5), (0.7, 0.4), (0.5, 0.5)),
        GaussianMixture1D((1.0,), (0.9,), (1.0,)),
    )
    xs = np.linspace(-5, 5, 201)
    d_star = optimal_discriminator_oracle(toy, xs)
    p = toy.p_data.pdf(xs)
    q = toy.p_model.pdf(xs)
    assert np.max(np.abs(d_star * (p + q) - p)) < 1e-12


def test_oracle_far_tail_returns_half():
    toy = ToyDensityPair(
        GaussianMixture1D((0.0,), (0.5,), (1.0,)),
        GaussianMixture1D((1.0,), (0.5,), (1.0,)),
    )
    assert optimal_discriminator_oracle(toy, 1e4) == 0.5  # both underflow to 0


def test_fit_toy_discriminator_learns_direction():
    toy = ToyDensityPair(
        GaussianMixture1D((-2.0,), (0.7,), (1.0,)),
        GaussianMixture1D((2.0,), (0.7,), (1.0,)),
    )
    model = fit_toy_discriminator(toy, 3000, epochs=6, batch_size=64,
                                  learning_rate=2e-3, seed=11)
    xs = np.array([[-3.0], [3.0]], dtype=np.float32)
    probs = model.forward(xs)
    assert probs[0, 0] > 0.8  # deep in data territory
    assert probs[1, 0] < 0.2  # deep in model territory


# ---------------------------------------------------------------- sampling


def test_generate_zero_samples():
    pair = small_pair()
    out = generate_samples(pair.generator, 0, 1, BATCH)
    assert out.shape == (0, 1, 32, 32)


def test_generate_deterministic_and_in_range():
    pair = small_pair()
    a = generate_samples(pair.generator, 3, 2, BATCH)
    b = generate_samples(pair.generator, 3, 2, BATCH)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    c = generate_samples(pair.generator, 3, 3, BATCH)
    assert not np.array_equal(a, c)


def test_generate_in_batches_matches_one_forward(monkeypatch):
    # the default width (base_channels 64, a 100 -> 1024 dense projection),
    # as `anomdet generate` runs it
    generator = build_generator(SHAPE, 100, 64, seed=0)
    bs = 8
    n = 2 * bs + 5
    z = stream(6, "gan-sample").standard_normal((n, 100)).astype(np.float32)
    whole = from_gan_range(generator.forward(z, mode="eval"))
    rows = []
    forward = generator.forward

    def counted(x, *args, **kwargs):
        rows.append(x.shape[0])
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(generator, "forward", counted)
    got = generate_samples(generator, n, 6, bs)
    assert rows == [bs, bs, 5]  # no forward sees more than one batch
    np.testing.assert_array_equal(got.view(np.uint32), whole.view(np.uint32))


def test_generate_writes_files(tmp_path):
    pair = small_pair()
    generate_samples(pair.generator, 5, 4, BATCH, out_dir=tmp_path)
    files = sorted((tmp_path / "samples").glob("sample_*.pgm"))
    assert len(files) == 5
    img = read_pgm(files[0])
    assert img.shape == (32, 32)
    sheet = read_pgm(tmp_path / "sheet.pgm")
    # 5 tiles -> 3 cols x 2 rows with 2px separators
    assert sheet.shape == (2 * 32 + 3 * 2, 3 * 32 + 4 * 2)


def test_contact_sheet_geometry():
    imgs = np.zeros((4, 1, 8, 8), dtype=np.float32)
    sheet = contact_sheet(imgs, pad=2)
    assert sheet.shape == (1, 2 * 8 + 3 * 2, 2 * 8 + 3 * 2)
    assert sheet[0, 0, 0] == 0.5  # border gray
    assert sheet[0, 2, 2] == 0.0  # first tile content
