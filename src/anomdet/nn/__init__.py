"""Deterministic numpy neural-network core: layers, models, losses,
optimizers, and binary model files."""

from . import functional
from .losses import bce, loss_eval, mse
from .model import LAYER_KINDS, LayerSpec, ModelGraph
from .optim import RmsProp, Sgd
from .serialize import load_model, save_model

__all__ = [
    "functional",
    "LayerSpec",
    "ModelGraph",
    "LAYER_KINDS",
    "mse",
    "bce",
    "loss_eval",
    "Sgd",
    "RmsProp",
    "save_model",
    "load_model",
]
