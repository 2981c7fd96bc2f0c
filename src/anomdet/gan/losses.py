"""The two-player objectives.

With r = D(x) on real images and f = D(G(z)) on fakes,

    J_D          = -1/2 mean log r - 1/2 mean log(1 - f)
    J_G (nonsat) = -1/2 mean log f

Probabilities are clamped to [eps, 1-eps] before the logs; gradients are
zero where the clamp is active, matching the derivative of the clamped
expression actually evaluated. Losses and gradients are evaluated in
float64; the gradients come back in the probabilities' dtype, as in
`anomdet.nn.losses`, so a float32 network backpropagates in float32.
"""

import numpy as np

GAN_EPS = 1e-7

__all__ = ["GAN_EPS", "discriminator_loss_grads", "generator_loss_grad"]


def _clamped_log_stats(p: np.ndarray):
    """(p flat in float64 and clamped, where the clamp is inactive, the
    dtype gradients w.r.t. p come back in: p's, or float64 if not float)."""
    p = np.asarray(p)
    dtype = p.dtype if p.dtype.kind == "f" else np.dtype(np.float64)
    p = p.astype(np.float64).reshape(-1)
    clamped = np.clip(p, GAN_EPS, 1.0 - GAN_EPS)
    inside = (p > GAN_EPS) & (p < 1.0 - GAN_EPS)
    return clamped, inside, dtype


def discriminator_loss_grads(d_real, d_fake):
    """J_D plus its gradients w.r.t. the raw probability vectors.

    Gradient shapes match the flattened inputs, and their dtypes the
    inputs' dtypes; callers reshape back.
    """
    r, in_r, r_dtype = _clamped_log_stats(d_real)
    f, in_f, f_dtype = _clamped_log_stats(d_fake)
    j_d = -0.5 * float(np.mean(np.log(r))) - 0.5 * float(np.mean(np.log(1.0 - f)))
    g_r = np.where(in_r, -1.0 / (2.0 * r.size * r), 0.0)
    g_f = np.where(in_f, 1.0 / (2.0 * f.size * (1.0 - f)), 0.0)
    return j_d, g_r.astype(r_dtype, copy=False), g_f.astype(f_dtype, copy=False)


def generator_loss_grad(d_fake):
    """Non-saturating J_G plus its gradient w.r.t. the fake probabilities,
    in their dtype."""
    f, in_f, dtype = _clamped_log_stats(d_fake)
    j_g = -0.5 * float(np.mean(np.log(f)))
    g_f = np.where(in_f, -1.0 / (2.0 * f.size * f), 0.0)
    return j_g, g_f.astype(dtype, copy=False)
