"""ModelGraph construction, determinism, and binary round-trips."""

from pathlib import Path

import numpy as np
import pytest

from anomdet.errors import DataError, ShapeError
from anomdet.nn import (
    LayerSpec,
    ModelGraph,
    RmsProp,
    load_model,
    mse,
    save_model,
)


def small_specs():
    return [
        LayerSpec("conv2d", filters=4, kernel=3, stride=1, padding=1),
        LayerSpec("activation", activation="relu"),
        LayerSpec("maxpool2d"),
        LayerSpec("batchnorm"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=5),
        LayerSpec("activation", activation="sigmoid"),
    ]


def test_empty_layer_list_is_identity():
    m = ModelGraph([], (2, 3, 3), rng_seed=1)
    x = np.random.default_rng(0).standard_normal((4, 2, 3, 3))
    np.testing.assert_array_equal(m.forward(x), x)


def test_single_dense_identity_layer():
    m = ModelGraph(
        [LayerSpec("flatten"), LayerSpec("dense", units=4)], (1, 2, 2), rng_seed=1
    )
    m.params["1.w"] = np.eye(4, dtype=np.float32)
    x = np.random.default_rng(1).standard_normal((3, 1, 2, 2)).astype(np.float32)
    np.testing.assert_allclose(m.forward(x), x.reshape(3, 4))


def test_shape_inference_recorded_per_layer():
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=2)
    assert m.shapes == [
        (1, 8, 8),
        (4, 8, 8),
        (4, 8, 8),
        (4, 4, 4),
        (4, 4, 4),
        (64,),
        (5,),
        (5,),
    ]


def test_incompatible_stack_fails_with_layer_index():
    specs = [LayerSpec("dense", units=3)]  # dense straight onto (C,H,W)
    with pytest.raises(ShapeError, match=r"layer 0 \(dense\)"):
        ModelGraph(specs, (1, 4, 4), rng_seed=3)


def test_bad_reshape_element_count():
    specs = [LayerSpec("flatten"), LayerSpec("reshape", target_shape=(2, 3, 3))]
    with pytest.raises(ShapeError, match="layer 1"):
        ModelGraph(specs, (1, 4, 4), rng_seed=4)


def test_input_shape_validated_at_forward():
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=5)
    with pytest.raises(ShapeError, match="input shape"):
        m.forward(np.zeros((2, 1, 6, 6)))


def test_init_determinism_bitwise():
    a = ModelGraph(small_specs(), (1, 8, 8), rng_seed=77)
    b = ModelGraph(small_specs(), (1, 8, 8), rng_seed=77)
    assert a.params.keys() == b.params.keys()
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    c = ModelGraph(small_specs(), (1, 8, 8), rng_seed=78)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_init_ranges_follow_fan_rules():
    specs = [
        LayerSpec("conv2d", filters=8, kernel=3, stride=1, padding=1),
        LayerSpec("activation", activation="relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=6),
        LayerSpec("activation", activation="sigmoid"),
    ]
    m = ModelGraph(specs, (2, 4, 4), rng_seed=6)
    he_limit = np.sqrt(6.0 / (2 * 9))  # feeds relu
    w0 = m.params["0.w"]
    assert np.max(np.abs(w0)) <= he_limit
    assert np.max(np.abs(w0)) > 0.8 * he_limit  # actually fills the range
    fan_in = 8 * 4 * 4  # conv keeps 4x4 at stride 1 pad 1
    xavier_limit = np.sqrt(6.0 / (fan_in + 6))  # feeds sigmoid
    w3 = m.params["3.w"]
    assert np.max(np.abs(w3)) <= xavier_limit
    assert np.max(np.abs(w3)) > 0.8 * xavier_limit


def test_biases_start_at_zero():
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=7)
    assert np.all(m.params["0.b"] == 0)
    assert np.all(m.params["5.b"] == 0)


def test_training_determinism_bitwise():
    def train_once():
        m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=42)
        opt = RmsProp(lr=1e-3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 1, 8, 8)).astype(np.float32)
        t = rng.uniform(0, 1, (4, 5)).astype(np.float32)
        for _ in range(5):
            caches = []
            y = m.forward(x, mode="train", caches=caches)
            _, dy = mse(y, t)
            _, grads = m.backward(dy, caches)
            opt.step(m.params, grads)
        return m

    a, b = train_once(), train_once()
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    for k in a.buffers:
        np.testing.assert_array_equal(a.buffers[k], b.buffers[k])


def test_forward_outputs_finite_on_finite_input():
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=8)
    x = np.random.default_rng(2).standard_normal((4, 1, 8, 8)).astype(np.float32)
    caches = []
    y = m.forward(x, mode="train", caches=caches)
    assert np.all(np.isfinite(y))
    _, grads = m.backward(np.ones_like(y), caches)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_forward_to_bottleneck():
    specs = [
        LayerSpec("conv2d", filters=3, kernel=3, stride=2, padding=1),
        LayerSpec("activation", activation="relu"),
        LayerSpec("flatten"),
    ]
    m = ModelGraph(specs, (1, 8, 8), rng_seed=9, bottleneck=2)
    x = np.random.default_rng(3).standard_normal((2, 1, 8, 8)).astype(np.float32)
    z = m.forward_to(m.bottleneck, x)
    assert z.shape == (2, 3 * 4 * 4)
    np.testing.assert_array_equal(z, m.forward(x))  # flatten is the last layer


# ------------------------------------------------------------ serialization


def test_save_load_round_trip_bitwise(tmp_path):
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=10, model_kind="test", bottleneck=4)
    # make buffers non-trivial
    x = np.random.default_rng(4).standard_normal((4, 1, 8, 8)).astype(np.float32)
    m.forward(x, mode="train", caches=[])
    p = tmp_path / "m.anomf"
    save_model(m, p)
    m2 = load_model(p)
    assert m2.model_kind == "test"
    assert m2.bottleneck == 4
    assert m2.rng_seed == 10
    assert m2.input_shape == (1, 8, 8)
    assert m2.specs == m.specs
    for k in m.params:
        assert m.params[k].tobytes() == m2.params[k].tobytes()
    for k in m.buffers:
        assert m.buffers[k].tobytes() == m2.buffers[k].tobytes()


# conv2d -> batchnorm -> relu -> maxpool2d -> flatten -> dense -> reshape ->
# conv2d_transpose -> sigmoid: every layer kind, so the file pins each kind's
# code and its init draws
ALL_KINDS = [
    LayerSpec("conv2d", filters=2, kernel=3, stride=1, padding=1),
    LayerSpec("batchnorm"),
    LayerSpec("activation", activation="relu"),
    LayerSpec("maxpool2d"),
    LayerSpec("flatten"),
    LayerSpec("dense", units=32),
    LayerSpec("reshape", target_shape=(2, 4, 4)),
    LayerSpec("conv2d_transpose", filters=1, kernel=4, stride=2, padding=1),
    LayerSpec("activation", activation="sigmoid"),
]
GOLDEN = Path(__file__).parent / "data" / "all_kinds.anom"


def test_golden_checkpoint_loads_and_resaves_byte_identical(tmp_path):
    m = load_model(GOLDEN)
    assert m.specs == ALL_KINDS
    assert (m.input_shape, m.rng_seed, m.model_kind, m.bottleneck) == ((1, 8, 8), 7, "all-kinds", 5)
    save_model(m, tmp_path / "again.anom")
    assert (tmp_path / "again.anom").read_bytes() == GOLDEN.read_bytes()


def test_golden_checkpoint_matches_fresh_init():
    loaded = load_model(GOLDEN)
    fresh = ModelGraph(ALL_KINDS, (1, 8, 8), rng_seed=7, model_kind="all-kinds", bottleneck=5)
    for got, want in ((loaded.params, fresh.params), (loaded.buffers, fresh.buffers)):
        assert list(got) == list(want)
        for k in want:
            assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k


def test_save_load_file_level_round_trip(tmp_path):
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=11)
    p1, p2 = tmp_path / "a.anomf", tmp_path / "b.anomf"
    save_model(m, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_same_outputs(tmp_path):
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=12)
    x = np.random.default_rng(5).standard_normal((3, 1, 8, 8)).astype(np.float32)
    m.forward(x, mode="train", caches=[])  # move running stats off init
    p = tmp_path / "m.anomf"
    save_model(m, p)
    y1 = m.forward(x, mode="eval")
    y2 = load_model(p).forward(x, mode="eval")
    np.testing.assert_array_equal(y1, y2)


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.anomf"
    p.write_bytes(b"NOTFMT" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        load_model(p)


def test_failed_save_leaves_no_file(tmp_path, monkeypatch):
    from contextlib import contextmanager

    import anomdet.atomic as atomic

    target = tmp_path / "m.anom"
    with pytest.raises(RuntimeError):
        with atomic.replacing(target) as fh:
            fh.write(b"ANOMF1 half a model")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []

    written = []
    real_open = open

    @contextmanager
    def open_failing_part_way(path, mode):
        with real_open(path, mode) as fh:
            class Half:
                def write(self, data):
                    written.append(fh.write(data[: len(data) // 2]))
                    raise OSError(28, "No space left on device")
            yield Half()

    monkeypatch.setattr(atomic, "open", open_failing_part_way, raising=False)
    with pytest.raises(OSError):
        save_model(ModelGraph(small_specs(), (1, 8, 8), rng_seed=1), target)
    assert written[0] > 0 and list(tmp_path.iterdir()) == []


def test_load_reports_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read model file"):
        load_model(tmp_path / "absent.anom")


def test_load_rejects_truncated(tmp_path):
    m = ModelGraph(small_specs(), (1, 8, 8), rng_seed=13)
    p = tmp_path / "m.anomf"
    save_model(m, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_model(p)


# ---------------------------------------------------------------- memory


def _ni_cae_step():
    """A seeded NI-CAE 32-px batch-16 model, its batch and an optimizer."""
    from anomdet.nn import RmsProp
    from anomdet.pipelines import build_ni_cae

    model = build_ni_cae((1, 32, 32), seed=4)
    x = np.random.default_rng(4).random((16, 1, 32, 32), dtype=np.float32)
    return model, x, RmsProp(1e-3)


def test_backward_consumes_the_cache_list():
    model, x, _ = _ni_cae_step()
    caches: list = []
    y = model.forward(x, mode="train", caches=caches)
    assert len(caches) == len(model.specs)
    model.backward(np.ones_like(y), caches)
    assert caches == []


def test_activation_caches_hold_only_their_output(monkeypatch):
    from anomdet.nn import functional as F

    calls = []
    activate = F.activate

    def spy(x, name):
        y, cache = activate(x, name)
        calls.append((x, y, cache))
        return y, cache

    monkeypatch.setattr(F, "activate", spy)
    model, x, _ = _ni_cae_step()
    model.forward(x, mode="train", caches=[])
    assert len(calls) == sum(s.kind == "activation" for s in model.specs)
    for x_in, y, cache in calls:
        arrays = [a for a in cache if isinstance(a, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is y
        assert not np.shares_memory(y, x_in)


# Peak of numpy allocations over one train step (forward with caches, loss,
# backward, optimizer step), measured with tracemalloc on the code before
# the output-only activation caches, the consumed cache list and the
# blocked conv scatter: 73.0 MB for this model, batch and seed. Those cut
# it to 53.7 MB; the bound keeps at most 0.8 of the old peak.
NI_CAE_32PX_STEP_PEAK_BEFORE_MB = 73.0


def test_ni_cae_train_step_peak_allocation():
    import tracemalloc

    from anomdet.nn import loss_eval

    model, x, opt = _ni_cae_step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        caches: list = []
        y = model.forward(x, mode="train", caches=caches)
        _, dy = loss_eval(y, x, "mse")
        _, grads = model.backward(dy, caches)
        opt.step(model.params, grads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= 0.8 * NI_CAE_32PX_STEP_PEAK_BEFORE_MB, f"{peak / 1e6:.1f} MB"
