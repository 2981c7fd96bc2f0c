"""Pinned model files of freshly built detectors and DCGAN players.

Each digest is the sha256 of the `save_model` bytes of one model built at
32 px with a fixed seed. A change to a builder's layer order, widths,
init draws or file format moves the digest; a refactor must not.
"""

import hashlib

import pytest

from anomdet.gan import build_discriminator, build_generator
from anomdet.nn import save_model
from anomdet.pipelines import build_cnn, build_kd_cae, build_ni_cae

BUILDERS = {
    "cnn": lambda: build_cnn((1, 32, 32), seed=0),
    "kd-cae": lambda: build_kd_cae((1, 32, 32), seed=0),
    "ni-cae": lambda: build_ni_cae((1, 32, 32), seed=0),
    "dcgan-generator": lambda: build_generator((1, 32, 32), 100, 8, seed=0),
    "dcgan-discriminator": lambda: build_discriminator((1, 32, 32), 8, seed=0),
}

DIGESTS = {
    "cnn": "89ef2543126a708a925214171714e28a1041c644ac15be8e19c6ab800b2fcaa3",
    "kd-cae": "f165b361530916fe8a5b85facb5e10d997223bad43d357b4012800e3c5ed1864",
    "ni-cae": "b14ab919964cd960b914d73de6caf1d71295722d87d0cbe8cfeb8da3c343be01",
    "dcgan-generator": "213a547f28f8a20de376d590ea729a940d916c745d9c6cb7002b2468b4ba97d3",
    "dcgan-discriminator": "d4400a091e1dce56f552e431db34d5827d3c5a1df6f731fc209c95cb2188e7e3",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_fresh_model_file_digest(name, tmp_path):
    path = tmp_path / f"{name}.anom"
    save_model(BUILDERS[name](), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
