"""Graph builders for the three detectors. Each takes the (C, H, W) input
shape and an init seed; a shape the graph cannot take is a ConfigError.

Shape conventions baked in here:

  CNN        five conv(3x3, 16)+relu+pool blocks, then dense(64)+relu
             and dense(1)+sigmoid. Pooling floors odd extents, so a
             200px input traces 200-100-50-25-12-6. Input must be at
             least 32px.
  KD-CAE     six encoder convs (two keep spatial size, four halve it
             via stride 2), so 128px drops to 8x8 at 128 channels; the
             flattened bottleneck is 8192 long. Decoder mirrors with
             four stride-2 transpose convs. Input must be a multiple
             of 16.
  NI-CAE     five conv+pool blocks with filters [128,64,16,8,4], dense
             512 bottleneck, dense back, mirrored transpose-conv stack,
             1x1 conv + sigmoid output. Input must be a multiple of 32.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..nn import LayerSpec, ModelGraph

NI_CAE_FILTERS = (128, 64, 16, 8, 4)
NI_CAE_BOTTLENECK = 512  # dense code width
CNN_FILTERS = 16  # every conv block
CNN_HIDDEN = 64  # dense units before the output


def build_cnn(input_shape: tuple[int, int, int], seed: int) -> ModelGraph:
    """Supervised defect classifier; output (N, 1) sigmoid probability."""
    _, h, w = input_shape
    if h != w:
        raise ConfigError(f"cnn input must be square, got {h}x{w}")
    if h < 32:  # each of the 5 pools needs an extent of at least 2
        raise ConfigError(f"cnn input {h}px too small for 5 pool stages")
    specs = []
    for _ in range(5):
        specs.append(LayerSpec("conv2d", filters=CNN_FILTERS, kernel=3, stride=1, padding=1))
        specs.append(LayerSpec("activation", activation="relu"))
        specs.append(LayerSpec("maxpool2d", allow_odd=True))
    specs.append(LayerSpec("flatten"))
    specs.append(LayerSpec("dense", units=CNN_HIDDEN))
    specs.append(LayerSpec("activation", activation="relu"))
    specs.append(LayerSpec("dense", units=1))
    specs.append(LayerSpec("activation", activation="sigmoid"))
    return ModelGraph(specs, input_shape, rng_seed=seed, model_kind="cnn")


def build_kd_cae(input_shape: tuple[int, int, int], seed: int) -> ModelGraph:
    """Autoencoder scored by reconstruction error and latent density.

    The bottleneck is the flatten layer between encoder and decoder; its
    output length is 128 * (size/16)^2 (8192 at the default 128px).
    """
    c, h, w = input_shape
    if c not in (1, 3):
        raise ConfigError(f"kd-cae input channels must be 1 or 3, got {c}")
    if h != w:
        raise ConfigError(f"kd-cae input must be square, got {h}x{w}")
    if h % 16 != 0 or h < 16:
        raise ConfigError(f"kd-cae input size must be a multiple of 16, got {h}")
    s = h // 16
    enc = [
        ("conv2d", 32, 3, 1),
        ("conv2d", 32, 3, 2),
        ("conv2d", 64, 3, 1),
        ("conv2d", 64, 3, 2),
        ("conv2d", 128, 3, 2),
        ("conv2d", 128, 3, 2),
    ]
    specs = []
    for kind, f, k, stride in enc:
        specs.append(LayerSpec(kind, filters=f, kernel=k, stride=stride, padding=1))
        specs.append(LayerSpec("activation", activation="relu"))
    bottleneck = len(specs)
    specs.append(LayerSpec("flatten"))
    specs.append(LayerSpec("reshape", target_shape=(128, s, s)))
    dec = [
        ("conv2d_transpose", 128, 4, 2),
        ("conv2d_transpose", 64, 4, 2),
        ("conv2d", 64, 3, 1),
        ("conv2d_transpose", 32, 4, 2),
        ("conv2d", 32, 3, 1),
        ("conv2d_transpose", c, 4, 2),
    ]
    for i, (kind, f, k, stride) in enumerate(dec):
        specs.append(LayerSpec(kind, filters=f, kernel=k, stride=stride, padding=1))
        last = i == len(dec) - 1
        specs.append(LayerSpec("activation", activation="sigmoid" if last else "relu"))
    return ModelGraph(
        specs, input_shape, rng_seed=seed, model_kind="kd-cae", bottleneck=bottleneck
    )


def build_ni_cae(input_shape: tuple[int, int, int], seed: int) -> ModelGraph:
    """Noise-injection autoencoder with a dense-512 bottleneck."""
    c, h, w = input_shape
    if c != 1:
        raise ConfigError(f"ni-cae works on grayscale input, got {c} channels")
    if h != w:
        raise ConfigError(f"ni-cae input must be square, got {h}x{w}")
    if h % 32 != 0 or h < 32:
        raise ConfigError(f"ni-cae input size must be a multiple of 32, got {h}")
    s = h // 32
    specs = []
    for f in NI_CAE_FILTERS:
        specs.append(LayerSpec("conv2d", filters=f, kernel=3, stride=1, padding=1))
        specs.append(LayerSpec("activation", activation="relu"))
        specs.append(LayerSpec("maxpool2d"))
    flat = NI_CAE_FILTERS[-1] * s * s
    specs.append(LayerSpec("flatten"))
    specs.append(LayerSpec("dense", units=NI_CAE_BOTTLENECK))
    specs.append(LayerSpec("activation", activation="relu"))
    bottleneck = len(specs) - 1  # post-activation dense-512 code
    specs.append(LayerSpec("dense", units=flat))
    specs.append(LayerSpec("activation", activation="relu"))
    specs.append(LayerSpec("reshape", target_shape=(NI_CAE_FILTERS[-1], s, s)))
    # mirror of the encoder's channel walk 1-128-64-16-8-4, arrows flipped
    for f in (8, 16, 64, 128, 1):
        specs.append(LayerSpec("conv2d_transpose", filters=f, kernel=4, stride=2, padding=1))
        specs.append(LayerSpec("activation", activation="relu"))
    specs.append(LayerSpec("conv2d", filters=1, kernel=1, stride=1, padding=0))
    specs.append(LayerSpec("activation", activation="sigmoid"))
    return ModelGraph(
        specs, input_shape, rng_seed=seed, model_kind="ni-cae", bottleneck=bottleneck
    )
