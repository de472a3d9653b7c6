"""Pluggable providers for dense correspondences, depth priors and place features.

The neural predictors of the full system are replaced by two interchangeable
implementations:

  * SyntheticProviders - exact oracles backed by an analytic ray-cast scene,
    with configurable noise; every quantity they emit is verifiable against
    the scene's ground truth.
  * PrecomputedProviders - reads tensors produced offline (by a real network
    stack) from disk in the DSPT binary format documented below.

DSPT tensor files: little-endian, header = magic "DSPT", u32 version, u32 H,
u32 W, u32 C, followed by H*W*C float32 values, row-major. One file per frame
or edge: `flow_{i:06d}_{j:06d}.dspt` (C=4: target u, target v, weight u,
weight v), `prior_{k:06d}.dspt` (C=1: disparity), `feat_{k:06d}.dspt` (C=D).
`read_dspt` returns the float32 values as stored; PrecomputedProviders widens
them to the float64 arrays that every provider hands out.
"""

from __future__ import annotations

import math
import os
import struct
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import ConfigError, DataError
# project is not called here; perfbench/spans.py wraps it in this module by name
from .geometry import (PinholeIntrinsics, SE3Pose, _integer_at_least, _real, backproject, compose,
                       inverse, project, ray_grid, reproject)

DSPT_MAGIC = b"DSPT"
DSPT_VERSION = 1
FLOW_FILE = "flow_{:06d}_{:06d}.dspt"  # file names, formatted with the edge (i, j) or frame k
PRIOR_FILE = "prior_{:06d}.dspt"
FEATURE_FILE = "feat_{:06d}.dspt"

FEATURE_DIM = 64
PRIOR_FLOOR = 1e-6  # least disparity that a depth prior hands out
DEPTH_CACHE_FRAMES = 8  # SyntheticScene.depth keeps this many frames (0.6 MB each at 240x320)
CONE_MARGIN = 1e-6  # rad; the view-cone cull keeps occluders this close to the cone
TEXTURE_FREQ = 2.5  # spatial frequency of the outer sphere's texture


@dataclass
class CorrespondenceUpdate:
    """Dense target correspondences p* and confidence weights for one edge."""

    edge: tuple[int, int]
    target: np.ndarray  # (H, W, 2) pixels
    weight: np.ndarray  # (H, W, 2) in [0, 1]

    def __post_init__(self):
        shape = self.target.shape
        if not (len(shape) == 3 and shape[2] == 2 and min(shape) >= 1
                and self.weight.shape == shape):
            raise DataError(f"edge {self.edge}: target and weight must both be (H, W, 2) with "
                            f"H, W >= 1, got {shape} and {self.weight.shape}")
        if not np.all(np.isfinite(self.target)):
            raise DataError(f"non-finite correspondence target on edge {self.edge}")
        # written so that NaN weights fail too
        if not (self.weight.min() >= 0.0 and self.weight.max() <= 1.0):
            raise DataError(f"correspondence weights outside [0, 1] on edge {self.edge}")


@dataclass
class PlaceFeature:
    vector: np.ndarray  # unit norm
    frame: int

    def __post_init__(self):
        n = np.linalg.norm(self.vector)
        if not abs(n - 1.0) <= 1e-9:
            raise DataError(f"place feature for frame {self.frame} not unit norm ({n})")


class Providers(Protocol):
    """The three provider roles; SyntheticProviders and PrecomputedProviders have no others."""

    def provide_correspondences(self, i: int, j: int, snapshot=None) -> CorrespondenceUpdate:
        """Dense targets and weights for edge i -> j."""

    def provide_depth_prior(self, k: int) -> np.ndarray:
        """(H, W) disparity prior for frame k."""

    def provide_place_feature(self, k: int) -> PlaceFeature:
        """Unit-norm place feature for frame k."""


# ---------------------------------------------------------------------------
# synthetic scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneSpec:
    """Frozen configuration of a synthetic ray-cast world and camera trajectory, validated once."""

    trajectory: str = "orbit"  # orbit | line | rotate
    frames: int = 100
    height: int = 48
    width: int = 64
    seed: int = 0
    focal: float | None = None  # fx = fy; default 0.9 * max(W, H)
    occluders: int = 6  # number of small floating spheres
    pixel_noise: float = 0.0  # correspondence noise sigma, pixels
    prior_scale_range: tuple[float, float] = (1.0, 1.0)  # per-frame a_t
    prior_offset_range: tuple[float, float] = (0.0, 0.0)  # per-frame b_t
    prior_noise: float = 0.0  # multiplicative disparity noise sigma

    def __post_init__(self):
        for name, least in (("frames", 2), ("height", 8), ("width", 8), ("seed", 0),
                            ("occluders", 0)):
            value = getattr(self, name)
            if not _integer_at_least(value, least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.trajectory not in ("orbit", "line", "rotate"):
            raise ConfigError(f"unknown trajectory type '{self.trajectory}'")
        # each test is written so that NaN fails it too
        for name in ("pixel_noise", "prior_noise"):
            value = getattr(self, name)
            if not (_real(value) and 0.0 <= value < math.inf):
                raise ConfigError(f"{name} must be a finite real >= 0, got {value!r}")
        if self.focal is not None and not (_real(self.focal) and 0.0 < self.focal < math.inf):
            raise ConfigError(f"focal must be a finite real > 0, got {self.focal!r}")
        for name, least in (("prior_scale_range", 0.0), ("prior_offset_range", -math.inf)):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_real, pair))
                    and least < pair[0] <= pair[1] < math.inf):
                raise ConfigError(f"{name} must be a tuple (lo, hi) of reals with "
                                  f"{least} < lo <= hi < inf, got {pair!r}")


OUTER_RADIUS = 6.0
ORBIT_RADIUS = 2.0


def _look_at_c2w(forwards: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations (N, 3, 3) of cameras looking along forwards (N, 3).

    Columns are right, down and forward, with right = forward x z-up; a
    vertical forward takes y as the up vector instead. The cross products are
    written out in np.cross's term order, a product with 1 left out, so the
    rotations equal np.cross's bit for bit, signed zeros included, at a
    fraction of its per-call cost.
    """
    f = forwards / np.linalg.norm(forwards, axis=-1, keepdims=True)
    f0, f1, f2 = f[:, 0], f[:, 1], f[:, 2]
    r = np.stack([f1 - f2 * 0.0, f2 * 0.0 - f0, f0 * 0.0 - f1 * 0.0], axis=-1)  # f x (0, 0, 1)
    vertical = np.linalg.norm(r, axis=-1) < 1e-8
    if vertical.any():
        v0, v1, v2 = f0[vertical], f1[vertical], f2[vertical]
        r[vertical] = np.stack([v1 * 0.0 - v2, v2 * 0.0 - v0 * 0.0, v0 - v1 * 0.0],
                               axis=-1)  # f x (0, 1, 0)
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    r0, r1, r2 = r[:, 0], r[:, 1], r[:, 2]
    down = np.stack([f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0], axis=-1)
    return np.stack([r, down, f], axis=-1)


class SyntheticScene:
    """Analytic world: camera inside a textured sphere with floating occluders.

    Every ray hits the outer sphere, so depth is defined everywhere and exact;
    the occluder spheres create parallax and occlusion for visibility tests.
    """

    def __init__(self, spec: SceneSpec):
        self.spec = spec
        f = spec.focal if spec.focal is not None else 0.9 * max(spec.width, spec.height)
        intr = self.intrinsics = PinholeIntrinsics(f, f, spec.width / 2.0, spec.height / 2.0,
                                                   spec.width, spec.height)
        self._ray_grid = ray_grid(intr)
        self._half_angle = math.atan(max(
            math.hypot((u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy)
            for u in (0.0, intr.width) for v in (0.0, intr.height)))
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 101]))
        n = spec.occluders
        phi = rng.uniform(0, 2 * np.pi, size=n)
        rad = rng.uniform(3.4, 4.6, size=n)
        z = rng.uniform(-1.2, 1.2, size=n)
        self.sphere_centers = np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
        self.sphere_radii = rng.uniform(0.45, 0.8, size=n)
        self.sphere_colors = rng.uniform(0.15, 0.85, size=(n, 3))
        centers, forwards = self._trajectory()
        self._R_c2w = _look_at_c2w(forwards)
        self._centers = centers
        self._R_w2c, self._t_w2c = inverse(self._R_c2w, centers)
        for a in (self._R_c2w, self._centers, self._R_w2c, self._t_w2c):
            a.flags.writeable = False  # pose_c2w hands out views of its rows
        self._feature_mix = np.random.default_rng(
            np.random.SeedSequence([spec.seed, 777])).normal(size=(FEATURE_DIM, 6))
        self._depth_cache: OrderedDict[int, np.ndarray] = OrderedDict()

    # -- trajectory ---------------------------------------------------------

    def _trajectory(self) -> tuple[np.ndarray, np.ndarray]:
        """Camera centers and forward directions of every frame, each (frames, 3)."""
        n = self.spec.frames
        s = np.arange(n) / n
        if self.spec.trajectory == "orbit":
            phi = 2 * np.pi * s
            centers = np.stack([ORBIT_RADIUS * np.cos(phi), ORBIT_RADIUS * np.sin(phi),
                                0.25 * np.sin(2 * phi)], axis=-1)
            forwards = np.stack([np.cos(phi), np.sin(phi), np.full(n, -0.08)], axis=-1)
        elif self.spec.trajectory == "line":
            t = (s - 0.5) * 3.0
            centers = np.stack([t, -0.4 * np.sin(np.pi * s), 0.2 * np.sin(2 * np.pi * s)],
                               axis=-1)
            yaw = 0.25 * np.sin(2 * np.pi * s)
            forwards = np.stack([np.sin(yaw), np.cos(yaw), np.full(n, -0.05)], axis=-1)
        else:  # rotate: fixed center, single-axis yaw sweep
            yaw = 1.2 * s
            centers = np.tile([0.5, 0.0, 0.0], (n, 1))
            forwards = np.stack([np.cos(yaw), np.sin(yaw), np.zeros(n)], axis=-1)
        return centers, forwards

    def check_frame(self, k: int):
        """Raise DataError unless k is an integer (not a bool) frame index of this scene."""
        if not (_integer_at_least(k, 0) and k < self.spec.frames):
            raise DataError(f"frame {k!r} not in scene (0..{self.spec.frames - 1})")

    def pose_c2w(self, k: int) -> SE3Pose:
        self.check_frame(k)
        return SE3Pose(self._R_c2w[k], self._centers[k])

    def relative_pose(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Camera i's frame to camera j's as (R, t): T_w2c[j] T_c2w[i] of the stored rows."""
        self.check_frame(i)
        self.check_frame(j)
        return compose(self._R_w2c[j], self._t_w2c[j], self._R_c2w[i], self._centers[i])

    # -- ray casting --------------------------------------------------------

    def _occluders_in_view(self, k: int) -> list[int]:
        """Indices of the occluders that a ray of camera k's image can hit.

        The image rectangle [0, W] x [0, H] lies in the cone about camera k's
        z axis whose half-angle `_half_angle` reaches its farthest corner. An
        occluder with centre c in camera k's frame is kept when the camera is
        inside or on it, or when its angular disc, angle(c, z axis) - asin(r / |c|),
        reaches that cone within CONE_MARGIN; any other occluder has no root at
        s > 0 along such a ray.
        """
        (a, b, e), o = self._R_w2c[k].tolist(), self._centers[k].tolist()
        keep = []
        for i, (c, r) in enumerate(zip(self.sphere_centers.tolist(), self.sphere_radii.tolist())):
            v0, v1, v2 = c[0] - o[0], c[1] - o[1], c[2] - o[2]
            x = a[0] * v0 + a[1] * v1 + a[2] * v2
            y = b[0] * v0 + b[1] * v1 + b[2] * v2
            z = e[0] * v0 + e[1] * v1 + e[2] * v2
            dist = math.hypot(x, y, z)
            if dist <= r or (math.atan2(math.hypot(x, y), z) - math.asin(r / dist)
                             <= self._half_angle + CONE_MARGIN):
                keep.append(i)
        return keep

    def _centers_from(self, k: int, i: int) -> np.ndarray:
        """(n, 3) occluder centres relative to camera k's centre, in camera i's frame."""
        return (self.sphere_centers - self._centers[k]) @ self._R_w2c[i].T

    def _cast(self, outer: np.ndarray, centers: np.ndarray, dirs, occluders):
        """Nearest intersection along s * (dx, dy, dz) from the ray origin.

        dirs holds direction components that broadcast together and may be
        unnormalized; outer (3,) and centers (n, 3) are the outer sphere's and the
        occluders' centres relative to the ray origin, in the frame of dirs. With
        camera rays (xn, yn, 1) from `_ray_grid`, s is the depth Z, and dd and each
        centre . direction product are separable (W,) + (H, 1) sums. occluders
        lists the occluder indices to test; a caller may leave out only those that
        provably miss every ray. Returns (s, object id), shaped like the broadcast
        components, with id -1 for the outer sphere, else the occluder index.
        """
        dx, dy, dz = dirs
        dd = dx * dx + dy * dy + dz * dz
        shape, dd = dd.shape, np.ravel(dd)
        # outer sphere: we are inside, take the positive root
        cd = np.ravel(outer[0] * dx + outer[1] * dy + outer[2] * dz)
        disc = cd**2 - dd * (float(outer @ outer) - OUTER_RADIUS**2)
        s_best = (cd + np.sqrt(np.maximum(disc, 0.0))) / dd
        obj = np.full(s_best.shape, -1, dtype=np.int64)
        for i in occluders:
            (cx, cy, cz), r = centers[i], self.sphere_radii[i]
            # dd r^2 - |c x d|^2 equals cd^2 - dd (|c|^2 - r^2) (Lagrange's identity) but
            # does not cancel on grazing rays, where the near root is most sensitive to it
            disc = dd * (r * r) - np.ravel((cy * dz - cz * dy)**2 + (cz * dx - cx * dz)**2
                                           + (cx * dy - cy * dx)**2)
            hit = np.flatnonzero(disc > 0)
            s_hit = (np.ravel(cx * dx + cy * dy + cz * dz)[hit] - np.sqrt(disc[hit])) / dd[hit]
            closer = (s_hit > 1e-9) & (s_hit < s_best[hit])
            s_best[hit[closer]] = s_hit[closer]
            obj[hit[closer]] = i
        return s_best.reshape(shape), obj.reshape(shape)

    def _cast_frame(self, k: int):
        """(s, object id) of camera k's rays (xn, yn, 1), cast in camera k's frame."""
        xn, yn = self._ray_grid
        return self._cast(self._t_w2c[k], self._centers_from(k, k), (xn, yn, 1.0),
                          self._occluders_in_view(k))

    def depth(self, k: int) -> np.ndarray:
        """Exact per-pixel pinhole depth Z for frame k, as a read-only array.

        The last DEPTH_CACHE_FRAMES frames asked for are kept.
        """
        self.check_frame(k)
        cache = self._depth_cache
        if k in cache:
            cache.move_to_end(k)
        else:
            z = self._cast_frame(k)[0]
            z.flags.writeable = False
            cache[k] = z
            if len(cache) > DEPTH_CACHE_FRAMES:
                cache.popitem(last=False)
        return cache[k]

    def disparity(self, k: int) -> np.ndarray:
        return 1.0 / self.depth(k)

    def _surface_color(self, pts: np.ndarray, obj: np.ndarray) -> np.ndarray:
        fr = TEXTURE_FREQ
        u = pts / OUTER_RADIUS
        col = 0.5 + 0.22 * np.stack([
            np.sin(fr * 2.1 * np.pi * u[..., 0]) * np.cos(fr * 1.3 * np.pi * u[..., 1]),
            np.sin(fr * 1.7 * np.pi * u[..., 1] + 1.1),
            np.cos(fr * 2.3 * np.pi * u[..., 2] + 0.4) * np.sin(fr * 0.9 * np.pi * u[..., 0]),
        ], axis=-1)
        for i, (c, r) in enumerate(zip(self.sphere_centers, self.sphere_radii)):
            on = obj == i
            if not on.any():
                continue
            local = (pts[on] - c) / r
            shade = 0.5 + 0.3 * np.sin(4.0 * local[:, 2:3] + i)
            col[on] = np.clip(self.sphere_colors[i] * (0.7 + 0.6 * shade), 0.02, 0.98)
        return np.clip(col, 0.02, 0.98)

    def image(self, k: int) -> np.ndarray:
        """(H, W, 3) color image in [0, 1] for frame k."""
        self.check_frame(k)
        s, obj = self._cast_frame(k)
        pts = backproject(s, self._R_c2w[k], self._centers[k], self._ray_grid)
        return self._surface_color(np.stack(pts, axis=-1), obj)

    def world_points(self, k: int) -> np.ndarray:
        """(H, W, 3) world-space surface point seen by each pixel of frame k."""
        s = self.depth(k)  # checks k
        return np.stack(backproject(s, self._R_c2w[k], self._centers[k], self._ray_grid), axis=-1)

    def visible_from(self, k: int, i: int) -> np.ndarray:
        """(H, W) mask: True where no occluder lies between camera k's center and
        the surface point seen by each pixel of frame i.

        The mask is exact wherever `reproject`'s valid mask for the edge i -> k is
        set; elsewhere it may be either value, since a point outside camera k's
        view is only tested against the occluders in that view. The test runs
        in camera i's frame, on the segment from camera k's center o to the
        point z * (xn, yn, 1) at frame i's cached depth z, and a pixel is
        occluded when some in-view occluder's near root s lies in
        (1e-9, 1 - 1e-6]. Only s against those bounds matters, so the discriminant
        takes its plain form, not `_cast`'s. The outer sphere is not tested: every
        surface point lies on or inside it, so its root is never below 1 - 1e-6.
        """
        self.check_frame(k)
        occluders = self._occluders_in_view(k)
        if not occluders:  # a constant mask: check i without ray-casting its depth
            self.check_frame(i)
            return np.ones((self.spec.height, self.spec.width), dtype=bool)
        z = self.depth(i)  # checks i
        xn, yn = self._ray_grid
        o = self._R_w2c[i] @ (self._centers[k] - self._centers[i])
        dx, dy, dz = z * xn - o[0], z * yn - o[1], z - o[2]
        dd = np.ravel(dx * dx + dy * dy + dz * dz)
        centers = self._centers_from(k, i)
        visible = np.ones(dd.shape, dtype=bool)
        for n in occluders:
            c, r = centers[n], self.sphere_radii[n]
            cd = np.ravel(c[0] * dx + c[1] * dy + c[2] * dz)
            disc = cd**2 - dd * (float(c @ c) - r * r)
            hit = np.flatnonzero(disc > 0)
            s = (cd[hit] - np.sqrt(disc[hit])) / dd[hit]
            visible[hit[(s > 1e-9) & (s <= 1.0 - 1e-6)]] = False
        return visible.reshape(z.shape)

    # -- prior corruption ---------------------------------------------------

    def prior_affine(self, k: int) -> tuple[float, float]:
        """Ground-truth per-frame corruption (a_k, b_k) of the depth prior.

        Drawn on each call from the stream (seed, 1000 + k), so frame k's pair
        does not depend on which other frames were asked for.
        """
        self.check_frame(k)
        rng = np.random.default_rng(np.random.SeedSequence([self.spec.seed, 1000 + k]))
        (lo_a, hi_a), (lo_b, hi_b) = self.spec.prior_scale_range, self.spec.prior_offset_range
        return float(rng.uniform(lo_a, hi_a)), float(rng.uniform(lo_b, hi_b))


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------

class SyntheticProviders:
    """Oracle implementations of all three provider roles for one scene."""

    def __init__(self, scene: SyntheticScene):
        self.scene = scene

    def provide_correspondences(self, i: int, j: int, snapshot=None) -> CorrespondenceUpdate:
        """Ground-truth reprojection targets i -> j with configured pixel noise.

        Weights are 1 on pixels of i whose surface point is visible in j and
        0 elsewhere; deterministic per (seed, i, j).
        """
        scene = self.scene
        R, t = scene.relative_pose(i, j)  # checks i and j before they seed the noise stream
        target, valid = reproject(scene.depth(i), R, t, scene.intrinsics)
        weight = np.empty(target.shape)
        # one pass: a (1 + 1j) per seen pixel is a 1 in both of its channels; at 240x320
        # this took 89 us against 326 us for two column writes (timeit, 2-vCPU VM)
        np.multiply(valid & scene.visible_from(j, i), 1 + 1j, out=_channel_pairs(weight)[..., 0])
        sigma = scene.spec.pixel_noise
        if sigma > 0:
            rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 31, i, j]))
            noise = rng.standard_normal(target.shape)
            noise *= sigma
            target += noise
        return CorrespondenceUpdate((i, j), target, weight)

    def provide_depth_prior(self, k: int) -> np.ndarray:
        """Disparity prior d* = a_k * d_true + b_k with multiplicative noise."""
        scene = self.scene
        a, b = scene.prior_affine(k)
        d = a * scene.disparity(k) + b
        if scene.spec.prior_noise > 0:
            rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 63, k]))
            d = d * np.exp(scene.spec.prior_noise * rng.normal(size=d.shape))
        return np.maximum(d, PRIOR_FLOOR)

    def provide_place_feature(self, k: int) -> PlaceFeature:
        """Smooth unit-norm embedding of the true camera position/orientation."""
        scene = self.scene
        scene.check_frame(k)  # the stored rows are indexed directly
        z = np.concatenate([scene._centers[k] / ORBIT_RADIUS, scene._R_c2w[k, :, 2]])
        raw = scene._feature_mix @ z
        return PlaceFeature(raw / np.linalg.norm(raw), k)


# ---------------------------------------------------------------------------
# DSPT tensor files and the precomputed-tensor adapter
# ---------------------------------------------------------------------------

def _channel_pairs(array: np.ndarray) -> np.ndarray:
    """View an (H, W, 2n) float32 or float64 array as (H, W, n) complex64 or complex128.

    Copying or casting one channel pair of an (H, W, 4) array as floats runs
    numpy's inner loop over the 2 channels of each pixel; as one complex
    element per pixel it runs over W pixels. At 240x320 a float32 -> float64
    pair cast takes 0.11 ms this way against 0.54 ms as floats, and a float64
    -> float32 pair store 0.10 against 0.58 ms (timeit, one core of a 2-vCPU
    VM). A complex cast converts each component exactly as the float cast
    would, so values and NaN payloads stay the same. The last axis must be
    contiguous.
    """
    return array.view(np.complex64 if array.dtype == np.float32 else np.complex128)


def write_dspt(path: str | Path, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.dtype.kind not in "biuf":
        raise DataError(f"{path}: DSPT arrays must be real numbers, got dtype {array.dtype}")
    if array.ndim == 2:
        array = array[..., None]
    if array.ndim != 3:
        raise DataError(f"DSPT arrays must be (H, W, C), got shape {array.shape}")
    if 0 in array.shape:  # read_dspt refuses an empty tensor, so none is written
        raise DataError(f"{path}: empty DSPT tensor, shape {array.shape}")
    array = np.ascontiguousarray(array, dtype="<f4")  # no copy for C-ordered float32
    try:
        with open(path, "wb") as fh:
            fh.write(DSPT_MAGIC + struct.pack("<IIII", DSPT_VERSION, *array.shape))
            fh.write(array)
    except OSError as exc:
        raise DataError(f"{path}: cannot write DSPT tensor file ({exc.strerror})") from exc


def read_dspt(path: str | Path) -> np.ndarray:
    """The (H, W, C) float32 values of a DSPT file, as stored."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(20)
            if len(header) < 20 or header[:4] != DSPT_MAGIC:
                raise DataError(f"{path}: not a DSPT tensor file")
            version, h, w, c = struct.unpack("<IIII", header[4:])
            if version != DSPT_VERSION:
                raise DataError(f"{path}: unsupported DSPT version {version}")
            if 0 in (h, w, c):
                raise DataError(f"{path}: empty DSPT tensor ({h}x{w}x{c})")
            expect = 20 + h * w * c * 4
            if size != expect:  # checked before the payload buffer is allocated
                raise DataError(f"{path}: truncated DSPT payload ({size} vs {expect} bytes)")
            data = np.empty((h, w, c), dtype="<f4")
            got = fh.readinto(data)
    except OSError as exc:
        raise DataError(f"{path}: cannot read DSPT tensor file ({exc.strerror})") from exc
    if got != data.nbytes:
        raise DataError(f"{path}: truncated DSPT payload ({20 + got} vs {expect} bytes)")
    return data


class PrecomputedProviders:
    """Adapter reading provider tensors from a directory of DSPT files."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise DataError(f"provider directory {directory} does not exist")

    def _load(self, name: str, *frames) -> np.ndarray:
        """Read the file `name.format(*frames)`, once every frame index is an integer >= 0."""
        if not all(_integer_at_least(k, 0) for k in frames):
            raise DataError(f"frame indices {frames} must be integers >= 0")
        return read_dspt(self.directory / name.format(*frames))

    # Each method widens the stored float32 values to float64. A signalling-NaN
    # payload flags "invalid" in that cast; the validators reject NaN, and the
    # prior is checked for NaN before its cast.

    def provide_correspondences(self, i: int, j: int, snapshot=None) -> CorrespondenceUpdate:
        data = self._load(FLOW_FILE, i, j)
        if data.shape[2] != 4:
            raise DataError(f"flow tensor for edge ({i},{j}) must have 4 channels")
        pairs = _channel_pairs(data)
        with np.errstate(invalid="ignore"):
            target, weight = (pairs[..., c, None].astype(np.complex128).view(np.float64)
                              for c in (0, 1))
        np.clip(weight, 0.0, 1.0, out=weight)
        return CorrespondenceUpdate((i, j), target, weight)

    def provide_depth_prior(self, k: int) -> np.ndarray:
        data = self._load(PRIOR_FILE, k)
        if data.shape[2] != 1 or not np.all(np.isfinite(data)):
            raise DataError(f"prior tensor for frame {k} must be one channel of finite values")
        return np.maximum(data[..., 0], PRIOR_FLOOR, dtype=np.float64)

    def provide_place_feature(self, k: int) -> PlaceFeature:
        data = self._load(FEATURE_FILE, k)
        with np.errstate(invalid="ignore"):
            vec = data.reshape(-1).astype(np.float64)
        n = np.linalg.norm(vec)
        if not 0.0 < n < np.inf:
            raise DataError(f"place feature for frame {k} is zero or not finite (norm {n})")
        return PlaceFeature(vec / n, k)


def dump_providers(providers: Providers, directory: str | Path, frames: Iterable[int],
                   edges: Iterable[tuple[int, int]]) -> None:
    """Write provider outputs as DSPT files usable by PrecomputedProviders.

    frames and edges are read once, so iterators work. Every frame and edge index
    is checked as PrecomputedProviders reads it, before any file is written (else DataError).
    """
    frames, edges = list(frames), list(edges)
    if not (all(_integer_at_least(k, 0) for k in frames)
            and all(isinstance(e, Sequence) and len(e) == 2
                    and all(_integer_at_least(k, 0) for k in e) for e in edges)):
        raise DataError(f"frame indices {frames!r} and edges {edges!r} must be integers >= 0")
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{directory}: cannot create provider directory ({exc.strerror})") from exc
    for k in frames:
        write_dspt(directory / PRIOR_FILE.format(k), providers.provide_depth_prior(k))
        feat = providers.provide_place_feature(k).vector
        write_dspt(directory / FEATURE_FILE.format(k), feat.reshape(1, 1, -1))
    for (i, j) in edges:
        upd = providers.provide_correspondences(i, j)
        target, weight = (np.ascontiguousarray(getattr(upd, name, None), dtype=np.float64)
                          for name in ("target", "weight"))
        if target.ndim != 3 or target.shape[2] != 2 or weight.shape != target.shape:
            raise DataError(f"edge ({i},{j}): target and weight must both be (H, W, 2), "
                            f"got {target.shape} and {weight.shape}")
        # target and weight interleaved into the stored (H, W, 4) float32 layout
        flow = np.empty(target.shape[:2] + (4,), dtype=np.float32)
        pairs = _channel_pairs(flow)
        pairs[..., :1] = _channel_pairs(target)
        pairs[..., 1:] = _channel_pairs(weight)
        write_dspt(directory / FLOW_FILE.format(i, j), flow)
