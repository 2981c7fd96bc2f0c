"""Directory ingestion, preprocessing, noise injection, and splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomdet.data import (
    Dataset,
    ImageSample,
    inject_gaussian_noise,
    load_image_dir,
    save_dataset,
    split_validation,
    write_pgm,
    write_ppm,
)
from anomdet.errors import DataError
from oracles import preprocess


def make_class_dir(root, class_name="widget", n_train=4, n_good=2, n_bad=3, size=8):
    rng = np.random.default_rng(42)
    base = root / class_name
    (base / "train" / "good").mkdir(parents=True)
    (base / "test" / "good").mkdir(parents=True)
    (base / "test" / "scratch").mkdir(parents=True)
    for i in range(n_train):
        write_pgm(base / "train" / "good" / f"{i:03d}.pgm",
                  rng.integers(0, 256, (size, size), dtype=np.uint8))
    for i in range(n_good):
        write_pgm(base / "test" / "good" / f"{i:03d}.pgm",
                  rng.integers(0, 256, (size, size), dtype=np.uint8))
    for i in range(n_bad):
        write_pgm(base / "test" / "scratch" / f"{i:03d}.pgm",
                  rng.integers(0, 256, (size, size), dtype=np.uint8))
    return base


def gray_sample(value=0.5, size=8, split="train", label="good"):
    px = np.full((1, 1, size, size), value, dtype=np.float32)
    return ImageSample(px, label, "", split, "mem://x")


# ------------------------------------------------------------------ loader


def test_loader_layout_and_labels(tmp_path):
    make_class_dir(tmp_path)
    ds = load_image_dir(tmp_path, "widget")
    train = ds.split_samples("train")
    test = ds.split_samples("test")
    assert len(train) == 4 and len(test) == 5
    assert all(s.label == "good" for s in train)
    assert sum(s.label == "defect" for s in test) == 3
    assert all(s.defect_kind == "scratch" for s in test if s.label == "defect")
    assert ds.skipped == 0


@pytest.mark.parametrize("split", ["train", "test"])
def test_loader_reads_one_split(tmp_path, split):
    make_class_dir(tmp_path)
    whole = load_image_dir(tmp_path, "widget").split_samples(split)
    part = load_image_dir(tmp_path, "widget", split=split).samples
    assert [s.source_path for s in part] == [s.source_path for s in whole]
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(part, whole))


def test_loader_test_split_needs_no_train_folder(tmp_path):
    base = make_class_dir(tmp_path)
    for f in (base / "train" / "good").iterdir():
        f.unlink()
    assert len(load_image_dir(tmp_path, "widget", split="test").samples) == 5
    with pytest.raises(DataError, match="no training images"):
        load_image_dir(tmp_path, "widget", split="train")
    with pytest.raises(DataError, match="split must be"):
        load_image_dir(tmp_path, "widget", split="val")


def test_loader_order_lexicographic(tmp_path):
    make_class_dir(tmp_path)
    ds = load_image_dir(tmp_path, "widget")
    paths = [s.source_path for s in ds.samples]
    assert paths == sorted(paths[:4]) + sorted(paths[4:6]) + sorted(paths[6:])
    # good sorts before scratch within test
    assert "good" in ds.samples[4].source_path
    assert "scratch" in ds.samples[6].source_path


def test_loader_missing_class(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_image_dir(tmp_path, "nothing")


def test_loader_empty_train(tmp_path):
    (tmp_path / "empty" / "train" / "good").mkdir(parents=True)
    with pytest.raises(DataError, match="no training images"):
        load_image_dir(tmp_path, "empty")


def test_loader_undecodable_warns_and_continues(tmp_path):
    base = make_class_dir(tmp_path)
    (base / "train" / "good" / "broken.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    with pytest.warns(UserWarning, match="broken"):
        ds = load_image_dir(tmp_path, "widget")
    assert ds.skipped == 1
    assert len(ds.split_samples("train")) == 4


def test_loader_pixels_unit_range(tmp_path):
    make_class_dir(tmp_path)
    ds = load_image_dir(tmp_path, "widget")
    for s in ds.samples:
        assert s.pixels.dtype == np.float32
        assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0


# -------------------------------------------------------------- preprocess


def test_preprocess_constant_image_value_preserved():
    px = np.full((1, 1, 32, 32), 0.25, dtype=np.float32)
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    out = preprocess(ds, 8, grayscale=True)
    np.testing.assert_allclose(out.samples[0].pixels, 0.25, atol=1e-7)
    assert out.samples[0].pixels.shape == (1, 1, 8, 8)


def test_preprocess_luminance_weights():
    px = np.zeros((1, 3, 4, 4), dtype=np.float32)
    px[0, 0] = 1.0  # pure red
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    out = preprocess(ds, 4, grayscale=True)
    np.testing.assert_allclose(out.samples[0].pixels, 0.299, atol=1e-6)


def test_preprocess_checkerboard_block_mean():
    px = np.indices((4, 4)).sum(axis=0) % 2
    px = px.astype(np.float32)[None, None]
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    out = preprocess(ds, 2, grayscale=True)
    np.testing.assert_allclose(out.samples[0].pixels, 0.5, atol=1e-7)


def test_preprocess_center_crop_nonsquare():
    px = np.zeros((1, 1, 8, 12), dtype=np.float32)
    px[0, 0, :, 2:10] = 1.0  # center 8x8 block ones
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    out = preprocess(ds, 8, grayscale=True)
    np.testing.assert_allclose(out.samples[0].pixels, 1.0)


def test_preprocess_bilinear_non_multiple():
    rng = np.random.default_rng(0)
    px = rng.uniform(0, 1, (1, 1, 12, 12)).astype(np.float32)
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    out = preprocess(ds, 8, grayscale=True)  # 12 -> 8 not integer ratio
    assert out.samples[0].pixels.shape == (1, 1, 8, 8)
    assert out.samples[0].pixels.min() >= 0.0 and out.samples[0].pixels.max() <= 1.0


def test_preprocess_idempotent():
    rng = np.random.default_rng(1)
    px = rng.uniform(0, 1, (1, 3, 40, 40)).astype(np.float32)
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    once = preprocess(ds, 10, grayscale=True)
    twice = preprocess(once, 10, grayscale=True)
    np.testing.assert_array_equal(
        once.samples[0].pixels, twice.samples[0].pixels
    )


def test_preprocess_refuses_upscale():
    ds = Dataset("c", [gray_sample(size=8)])
    with pytest.raises(DataError, match="upscal"):
        preprocess(ds, 16, grayscale=True)


# -------------------------------------------------------------- noise


def test_noise_exact_count_60():
    ds = Dataset("c", [gray_sample() for _ in range(60)])
    noisy, plan = inject_gaussian_noise(ds, fraction=0.10, seed=1)
    assert len(plan.selected_indices) == 6
    assert len(set(plan.selected_indices)) == 6


def test_noise_fraction_zero_unchanged():
    ds = Dataset("c", [gray_sample() for _ in range(5)])
    noisy, plan = inject_gaussian_noise(ds, fraction=0.0, seed=1)
    assert plan.selected_indices == ()
    for a, b in zip(ds.samples, noisy.samples):
        assert a.pixels is b.pixels  # untouched arrays shared, bitwise equal


def test_noise_untouched_samples_bitwise_identical():
    ds = Dataset("c", [gray_sample(value=0.3) for _ in range(10)])
    noisy, plan = inject_gaussian_noise(ds, fraction=0.10, seed=2)
    assert len(plan.selected_indices) == 1
    for i, (a, b) in enumerate(zip(ds.samples, noisy.samples)):
        if i in plan.selected_indices:
            assert not np.array_equal(a.pixels, b.pixels)
        else:
            assert a.pixels.tobytes() == b.pixels.tobytes()


def test_noise_magnitude_matches_folded_gaussian():
    # mean |delta| of N(0, 0.001) noise is sigma*sqrt(2/pi) ~ 0.02523;
    # on a mid-gray image the clamp never triggers
    ds = Dataset("c", [gray_sample(value=0.5, size=400)])
    noisy, plan = inject_gaussian_noise(ds, fraction=1.0, seed=3)
    delta = np.abs(noisy.samples[0].pixels.astype(np.float64) - 0.5)
    expect = np.sqrt(0.001) * np.sqrt(2.0 / np.pi)
    assert delta.size == 160000
    assert abs(delta.mean() - expect) < 0.2 * expect


def test_noise_clamps_to_unit_range():
    ds = Dataset("c", [gray_sample(value=1.0, size=64)])
    noisy, _ = inject_gaussian_noise(ds, fraction=1.0, seed=4)
    assert noisy.samples[0].pixels.max() <= 1.0
    assert noisy.samples[0].pixels.min() >= 0.0


def test_noise_targets_requested_split():
    samples = [gray_sample(split="train") for _ in range(10)] + [
        gray_sample(split="test") for _ in range(10)
    ]
    ds = Dataset("c", samples)
    _, plan = inject_gaussian_noise(ds, fraction=0.5, seed=5, target_split="test")
    assert len(plan.selected_indices) == 5
    assert all(idx >= 10 for idx in plan.selected_indices)


@pytest.mark.parametrize("split", ["all", "val"])
def test_noise_rejects_unknown_split(split):
    ds = Dataset("c", [gray_sample(split="train") for _ in range(10)])
    with pytest.raises(DataError, match="target split"):
        inject_gaussian_noise(ds, fraction=0.5, seed=5, target_split=split)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 500))
def test_noise_cardinality_floor_property(k):
    ds = Dataset("c", [gray_sample(size=4) for _ in range(k)])
    _, plan = inject_gaussian_noise(ds, fraction=0.10, seed=6)
    assert len(plan.selected_indices) == int(0.10 * k)


def test_noise_rejects_bad_fraction():
    ds = Dataset("c", [gray_sample()])
    with pytest.raises(DataError, match="fraction"):
        inject_gaussian_noise(ds, fraction=1.5)


# -------------------------------------------------------------- splitting


def test_split_10_at_02_gives_8_2():
    ds = Dataset("c", [gray_sample() for _ in range(10)])
    train, val = split_validation(ds, 0.2, seed=7)
    assert len(train.samples) == 8 and len(val.samples) == 2


def test_split_union_is_original_multiset():
    samples = [gray_sample(value=i / 20) for i in range(20)]
    ds = Dataset("c", samples)
    train, val = split_validation(ds, 0.25, seed=8)
    got = sorted(float(s.pixels[0, 0, 0, 0]) for s in train.samples + val.samples)
    want = sorted(float(s.pixels[0, 0, 0, 0]) for s in samples)
    assert got == want
    assert not (set(id(s) for s in train.samples) & set(id(s) for s in val.samples))


def test_split_seeds_give_distinct_partitions():
    ds = Dataset("c", [gray_sample(value=i / 40) for i in range(40)])
    seen = set()
    for seed in range(100):
        _, val = split_validation(ds, 0.2, seed=seed)
        seen.add(frozenset(float(s.pixels[0, 0, 0, 0]) for s in val.samples))
    assert len(seen) >= 95


def test_split_deterministic():
    ds = Dataset("c", [gray_sample(value=i / 10) for i in range(10)])
    a = split_validation(ds, 0.3, seed=9)
    b = split_validation(ds, 0.3, seed=9)
    for x, y in zip(a[0].samples, b[0].samples):
        assert x.pixels.tobytes() == y.pixels.tobytes()


def test_split_too_few_samples():
    ds = Dataset("c", [gray_sample()])
    with pytest.raises(DataError, match="at least 2"):
        split_validation(ds, 0.5)


# ----------------------------------------------------------------- caching


def test_dataset_cache_round_trip(tmp_path):
    """save_dataset writes the directory layout that load_image_dir reads
    back: train/good first, then the test/ folders in name order."""
    rng = np.random.default_rng(10)
    samples = []
    for i, (split, label, kind) in enumerate([
        ("train", "good", ""), ("test", "defect", "hole"), ("test", "good", ""),
        ("train", "good", ""), ("test", "defect", "crack"), ("test", "defect", "hole"),
    ]):
        u8 = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        px = (u8.astype(np.float32) / 255.0)[None, None]
        samples.append(ImageSample(px, label, kind, split, f"m{i}"))
    ds = Dataset("widget", samples)
    base = save_dataset(ds, tmp_path / "cache")
    assert base == tmp_path / "cache" / "widget"
    back = load_image_dir(tmp_path / "cache", "widget")
    assert back.class_name == "widget" and back.skipped == 0
    # train/good, test/crack, test/good, test/hole; names keep sample order
    for i, b in zip([0, 3, 4, 2, 1, 5], back.samples):
        a = ds.samples[i]
        assert a.pixels.tobytes() == b.pixels.tobytes()  # u8-grid floats round-trip
        assert (a.label, a.defect_kind, a.split) == (b.label, b.defect_kind, b.split)
    assert len(back.samples) == 6


def test_dataset_cache_rgb(tmp_path):
    rng = np.random.default_rng(11)
    u8 = rng.integers(0, 256, (5, 5, 3), dtype=np.uint8)
    px = (u8.astype(np.float32) / 255.0).transpose(2, 0, 1)[None]
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "m")])
    save_dataset(ds, tmp_path / "cache")
    back = load_image_dir(tmp_path / "cache", "c")
    assert back.samples[0].pixels.shape == (1, 3, 5, 5)
    assert back.samples[0].pixels.tobytes() == px.tobytes()


def test_save_dataset_refuses_train_defects(tmp_path):
    px = np.zeros((1, 1, 4, 4), dtype=np.float32)
    ds = Dataset("c", [ImageSample(px, "good", "", "train", "a"),
                       ImageSample(px, "defect", "hole", "train", "b")])
    with pytest.raises(DataError, match="train-split defects"):
        save_dataset(ds, tmp_path)
    assert not any(tmp_path.iterdir())  # refused before writing anything


# --------------------------------------------------- streamed preprocessing


def _assert_same_samples(got: Dataset, want: Dataset) -> None:
    assert (got.class_name, got.skipped) == (want.class_name, want.skipped)
    assert len(got.samples) == len(want.samples)
    for a, b in zip(got.samples, want.samples):
        assert (a.label, a.defect_kind, a.split, a.source_path) == (
            b.label, b.defect_kind, b.split, b.source_path)
        assert a.pixels.dtype == b.pixels.dtype and a.pixels.shape == b.pixels.shape
        assert np.array_equal(a.pixels.view(np.uint32), b.pixels.view(np.uint32))


@pytest.mark.parametrize("grayscale", [True, False])
@pytest.mark.parametrize("size", [6, 8])  # bilinear and block-mean downsampling
def test_ingest_preprocesses_each_file_like_preprocess(tmp_path, grayscale, size):
    base = make_class_dir(tmp_path, size=16)
    rng = np.random.default_rng(3)
    write_ppm(base / "test" / "scratch" / "rgb.ppm",
              rng.integers(0, 256, (16, 20, 3), dtype=np.uint8))
    write_pgm(base / "train" / "good" / "wide.pgm",
              rng.integers(0, 256, (12, 17), dtype=np.uint8))
    (base / "train" / "good" / "broken.pgm").write_bytes(b"P5 nonsense")
    with pytest.warns(UserWarning, match="undecodable"):
        whole = preprocess(load_image_dir(tmp_path, "widget"), size, grayscale)
    with pytest.warns(UserWarning, match="undecodable"):
        streamed = load_image_dir(tmp_path, "widget", image_size=size,
                                  grayscale=grayscale)
    _assert_same_samples(streamed, whole)


def test_ingest_holds_one_source_image_at_a_time(tmp_path):
    import tracemalloc

    side, target, n = 1024, 128, 12
    good = tmp_path / "part" / "train" / "good"
    good.mkdir(parents=True)
    rng = np.random.default_rng(8)
    for i in range(n):
        write_pgm(good / f"{i:03d}.pgm", rng.integers(0, 256, (side, side), dtype=np.uint8))
    tracemalloc.start()
    try:
        streamed = load_image_dir(tmp_path, "part", image_size=target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float32 source image, plus its file bytes and uint8 raster (a
    # quarter of that each), plus the kept set; a whole-list preprocess
    # holds all n sources (about 4n times one)
    source, kept = 4 * side * side, n * 4 * target * target
    assert peak <= 1.5 * source + kept, f"{peak / 1e6:.1f} MB"
    _assert_same_samples(streamed, preprocess(load_image_dir(tmp_path, "part"), target, True))
