"""Checks of provider outputs against the synthetic scene's ground truth.

The correspondence oracle uses plain 4x4 matrix algebra on the scene's depth
and camera matrices, not `flowsplat.geometry.reproject`. Every function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

from flowsplat.providers import FEATURE_DIM

MIN_WEIGHTED = 100  # fewer weighted pixels than this cannot test the noise statistics
NOISE_MEAN_PX = 0.05  # |mean(target - oracle)| limit on weighted pixels
NOISE_STD_REL = 0.10  # std(target - oracle) within this share of pixel_noise
VIEW_EPS_PX = 1e-6  # the oracle rounds differently from reproject at the image border
PRIOR_TOL = 1e-9
UNIT_NORM_TOL = 1e-9
PRIOR_FLOOR = 1e-6  # SyntheticProviders and PrecomputedProviders clamp disparity to this


def oracle_pixels(scene, i: int, j: int):
    """Where each pixel of frame i lands in frame j: ((H, W, 2) pixels, (H, W) depth in j).

    X_j = T_ji @ (x z, y z, z, 1) with T_ji = inv(C_j) @ C_i from the 4x4
    camera-to-world matrices, written out per row to avoid (H, W, 4) temporaries.
    """
    intr = scene.intrinsics
    z = scene.depth(i)
    T = np.linalg.inv(scene.pose_c2w(j).matrix()) @ scene.pose_c2w(i).matrix()
    x = (np.arange(intr.width) - intr.cx) / intr.fx
    y = ((np.arange(intr.height) - intr.cy) / intr.fy)[:, None]
    X, Y, Z = ((T[r, 0] * x + T[r, 1] * y + T[r, 2]) * z + T[r, 3] for r in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):  # Z <= 0 fails the view check
        return np.stack([intr.fx * X / Z + intr.cx, intr.fy * Y / Z + intr.cy], axis=-1), Z


def edge_problems(scene, upd, i: int, j: int) -> list[str]:
    intr = scene.intrinsics
    shape = (intr.height, intr.width, 2)
    if upd.edge != (i, j) or upd.target.shape != shape or upd.weight.shape != shape:
        return [f"edge {upd.edge} shapes {upd.target.shape}/{upd.weight.shape}, "
                f"expected ({i}, {j}) {shape}"]
    problems = []
    target, weight = upd.target, upd.weight
    if not np.all(np.isfinite(target)):
        problems.append("non-finite target")
    if not np.all((weight == 0.0) | (weight == 1.0)):
        problems.append("weight outside {0, 1}")
    on = np.all(weight == 1.0, axis=-1)
    n = int(on.sum())
    if n < MIN_WEIGHTED:
        return problems + [f"only {n} weighted pixels"]
    oracle, z = oracle_pixels(scene, i, j)
    u, v = oracle[..., 0], oracle[..., 1]
    in_view = ((z > 0) & (u >= -VIEW_EPS_PX) & (u <= intr.width + VIEW_EPS_PX)
               & (v >= -VIEW_EPS_PX) & (v <= intr.height + VIEW_EPS_PX))
    out = int((on & ~in_view).sum())
    if out:
        problems.append(f"{out} weighted pixels land out of view")
    # statistics over the weighted pixels only; the others may hold anything finite
    diff = np.where(on[..., None], target - oracle, 0.0)
    mean = np.abs(diff.sum(axis=(0, 1)) / n).max()
    centered = np.where(on[..., None], diff - diff.sum() / (2 * n), 0.0)
    std = np.sqrt((centered ** 2).sum() / (2 * n - 1))
    sigma = scene.spec.pixel_noise
    if not mean < NOISE_MEAN_PX:
        problems.append(f"|mean(target - oracle)| = {mean:.4f} px")
    if sigma > 0 and not abs(std - sigma) <= NOISE_STD_REL * sigma:
        problems.append(f"std(target - oracle) = {std:.4f} px, pixel_noise {sigma}")
    if sigma == 0 and not np.abs(diff).max() <= VIEW_EPS_PX:
        problems.append(f"noise-free target off by {np.abs(diff).max():.2e} px")
    return problems


def prior_problems(scene, k: int, prior) -> list[str]:
    """The prior must equal a_k * d + b_k (noise-free scenes), floored at PRIOR_FLOOR."""
    if scene.spec.prior_noise != 0:
        raise ValueError("the prior oracle needs prior_noise = 0")
    a, b = scene.prior_affine(k)
    expect = np.maximum(a / scene.depth(k) + b, PRIOR_FLOOR)
    if np.shape(prior) != expect.shape:
        return [f"prior shape {np.shape(prior)}, expected {expect.shape}"]
    err = np.abs(prior - expect)
    if not err.max() <= PRIOR_TOL:
        return [f"prior off a*d+b by {np.nanmax(err):.2e}"]
    return []


def feature_problems(feature, k: int) -> list[str]:
    vec = feature.vector
    if feature.frame != k or vec.shape != (FEATURE_DIM,):
        return [f"feature for frame {feature.frame} shape {vec.shape}, expected {k}"]
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        return [f"feature norm {norm}"]
    return []


def _as_stored(x):
    """What a DSPT round trip returns for float64 data: the float32 cast, widened."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def readback_problems(kind: str, written, read) -> list[str]:
    """Bit-for-bit comparison of a DSPT read-back with what was written.

    PrecomputedProviders clips weights to [0, 1], floors priors at PRIOR_FLOOR
    and renormalizes features after reading; the expectation applies the same
    steps to the float32 cast of the written values.
    """
    if kind == "edge":
        pairs = [(_as_stored(written.target), read.target),
                 (np.clip(_as_stored(written.weight), 0.0, 1.0), read.weight)]
    elif kind == "prior":
        pairs = [(np.maximum(_as_stored(written), PRIOR_FLOOR), read)]
    else:
        vec = _as_stored(written.vector)
        pairs = [(vec / np.linalg.norm(vec), read.vector)]
    for expect, got in pairs:
        if got.dtype != expect.dtype or not np.array_equal(got, expect):
            return [f"{kind} read back differs from the float32 cast of what was written"]
    if kind == "feature":
        return feature_problems(read, written.frame)
    return []
