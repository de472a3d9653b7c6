"""Pluggable providers for dense correspondences, depth priors and place features.

The neural predictors of the full system are replaced by two interchangeable
implementations:

  * SyntheticProviders - exact oracles backed by an analytic ray-cast scene,
    with configurable noise; every quantity they emit is verifiable against
    the scene's ground truth. On large images each edge's pixel-noise draw
    runs on one worker thread while the calling thread does the geometry.
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
import numbers
import os
import struct
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import ConfigError, DataError
# project is not called here; perfbench/spans.py wraps it in this module by name
from .geometry import PinholeIntrinsics, SE3Pose, compose, inverse, project, ray_grid, reproject

DSPT_MAGIC = b"DSPT"
DSPT_VERSION = 1

FEATURE_DIM = 64
DEPTH_CACHE_FRAMES = 8  # SyntheticScene.depth keeps this many frames (0.6 MB each at 240x320)
CONE_MARGIN = 1e-6  # rad; the view-cone cull keeps occluders this close to the cone
TEXTURE_FREQ = 2.5  # spatial frequency of the outer sphere's texture
# Noise values per edge from which SyntheticProviders draws them on its worker.
# Handing a draw to the worker and back costs about 70 us. Per edge, inline vs
# worker (timeit, min of 5 x 20 calls, 2-vCPU VM): 48x64 (6144 values) 240 vs
# 238 us, the break-even; 64x96 (12288) 412 vs 330 us; 128x160 (40960) 1388
# vs 971 us; 240x320 (153600) 4864 vs 3130 us. The threshold sits about 5x
# above the break-even, so a second core busy with other work does not make
# small edges slower.
NOISE_THREAD_MIN = 1 << 15


@dataclass
class CorrespondenceUpdate:
    """Dense target correspondences p* and confidence weights for one edge."""

    edge: tuple[int, int]
    target: np.ndarray  # (H, W, 2) pixels
    weight: np.ndarray  # (H, W, 2) in [0, 1]

    def __post_init__(self):
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


def _integer_at_least(value, least: int) -> bool:
    """True for an integer value >= least; numpy integers count, bools do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


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

@dataclass
class SceneSpec:
    """Configuration of a synthetic ray-cast world and camera trajectory."""

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
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.focal is not None and not 0.0 < self.focal < math.inf:
            raise ConfigError(f"focal must be finite and > 0, got {self.focal}")
        lo, hi = self.prior_scale_range
        if not 0.0 < lo <= hi < math.inf:
            raise ConfigError(f"prior_scale_range must satisfy 0 < lo <= hi, got {(lo, hi)}")
        lo, hi = self.prior_offset_range
        if not -math.inf < lo <= hi < math.inf:
            raise ConfigError(f"prior_offset_range must satisfy lo <= hi, got {(lo, hi)}")


OUTER_RADIUS = 6.0
ORBIT_RADIUS = 2.0


def _cross(a, b) -> tuple[float, float, float]:
    """a x b for two 3-sequences of floats, in np.cross's operation order."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _look_at_c2w(forwards: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations (N, 3, 3) of cameras looking along forwards (N, 3).

    Columns are right, down and forward, with right = forward x z-up; a
    vertical forward takes y as the up vector instead.
    """
    f = forwards / np.linalg.norm(forwards, axis=-1, keepdims=True)
    r = np.cross(f, (0.0, 0.0, 1.0))
    vertical = np.linalg.norm(r, axis=-1) < 1e-8
    r[vertical] = np.cross(f[vertical], (0.0, 1.0, 0.0))
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    return np.stack([r, np.cross(f, r), f], axis=-1)


class SyntheticScene:
    """Analytic world: camera inside a textured sphere with floating occluders.

    Every ray hits the outer sphere, so depth is defined everywhere and exact;
    the occluder spheres create parallax and occlusion for visibility tests.
    """

    def __init__(self, spec: SceneSpec):
        self.spec = spec
        f = spec.focal if spec.focal is not None else 0.9 * max(spec.width, spec.height)
        self.intrinsics = PinholeIntrinsics(f, f, spec.width / 2.0, spec.height / 2.0,
                                            spec.width, spec.height)
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

        The image rectangle [0, W] x [0, H] lies in the circular cone about the
        optical axis whose half-angle reaches its farthest corner. An occluder
        is kept when the camera is inside or on it, or when its angular disc,
        angle(c - o, axis) - asin(r / |c - o|), reaches that cone within
        CONE_MARGIN; any other occluder has no root at s > 0 along such a ray.
        """
        intr = self.intrinsics
        half_angle = math.atan(max(
            math.hypot((u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy)
            for u in (0.0, intr.width) for v in (0.0, intr.height)))
        o = self._centers[k].tolist()
        axis = self._R_c2w[k, :, 2].tolist()
        keep = []
        for i, (c, r) in enumerate(zip(self.sphere_centers.tolist(), self.sphere_radii.tolist())):
            v = (c[0] - o[0], c[1] - o[1], c[2] - o[2])
            dist = math.hypot(*v)
            if dist <= r:
                keep.append(i)
                continue
            along = v[0] * axis[0] + v[1] * axis[1] + v[2] * axis[2]
            angle = math.atan2(math.hypot(*_cross(v, axis)), along)
            if angle - math.asin(r / dist) <= half_angle + CONE_MARGIN:
                keep.append(i)
        return keep

    def _near_root(self, i: int, origin: np.ndarray, dx, dy, dz, dd):
        """Occluder i's near root along origin + s * (dx, dy, dz), where it exists.

        dx, dy, dz are flat direction components and dd their squared norm.
        Returns (flat indices where the discriminant is positive, s there).
        """
        oc = origin - self.sphere_centers[i]
        r = self.sphere_radii[i]
        ocd = oc[0] * dx + oc[1] * dy + oc[2] * dz
        disc = ocd**2 - dd * (float(oc @ oc) - r * r)
        hit = np.flatnonzero(disc > 0)
        return hit, (-ocd[hit] - np.sqrt(disc[hit])) / dd[hit]

    def _cast(self, origin: np.ndarray, dirs, occluders):
        """Nearest intersection along origin + s * (dx, dy, dz).

        dirs is the tuple of direction components, equal-shaped arrays. They may
        be unnormalized; the returned s is in units of dirs (so with camera-frame
        dirs (xn, yn, 1) it is the pinhole depth Z directly). Dot products are
        scalar x array sums over the components, and each occluder's root and
        nearest-hit update are evaluated only on the pixels where its
        discriminant is positive. occluders lists the occluder indices to test;
        a caller may leave out only those that provably miss every ray. Returns
        (s, object id), both shaped like the components, with id -1 for the
        outer sphere, else occluder index.
        """
        dx, dy, dz = (np.ravel(d) for d in dirs)
        dd = dx * dx + dy * dy + dz * dz
        od = origin[0] * dx + origin[1] * dy + origin[2] * dz
        oo = float(origin @ origin)
        # outer sphere: we are inside, take the positive root
        disc = od**2 - dd * (oo - OUTER_RADIUS**2)
        s_best = (-od + np.sqrt(np.maximum(disc, 0.0))) / dd
        obj = np.full(s_best.shape, -1, dtype=np.int64)
        for i in occluders:
            hit, s_hit = self._near_root(i, origin, dx, dy, dz, dd)
            closer = (s_hit > 1e-9) & (s_hit < s_best[hit])
            s_best[hit[closer]] = s_hit[closer]
            obj[hit[closer]] = i
        shape = np.shape(dirs[0])
        return s_best.reshape(shape), obj.reshape(shape)

    def _camera_rays(self, k: int):
        """Camera k's center and the world-frame components of its pixel rays.

        The ray of pixel (u, v) is R_c2w @ (xn[u], yn[v], 1); each of its three
        components is a separable (W,) + (H, 1) sum over `ray_grid`, shaped (H, W).
        """
        xn, yn = ray_grid(self.intrinsics)
        R = self._R_c2w[k]
        dirs = tuple(R[r, 0] * xn + R[r, 1] * yn + R[r, 2] for r in range(3))
        return self._centers[k], dirs

    def depth(self, k: int) -> np.ndarray:
        """Exact per-pixel pinhole depth Z for frame k, as a read-only array.

        The last DEPTH_CACHE_FRAMES frames asked for are kept.
        """
        self.check_frame(k)
        cache = self._depth_cache
        if k in cache:
            cache.move_to_end(k)
        else:
            origin, dirs = self._camera_rays(k)
            z = self._cast(origin, dirs, self._occluders_in_view(k))[0]
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
        origin, dirs = self._camera_rays(k)
        s, obj = self._cast(origin, dirs, self._occluders_in_view(k))
        pts = np.stack([origin[r] + s * dirs[r] for r in range(3)], axis=-1)
        return self._surface_color(pts, obj)

    def world_points(self, k: int) -> np.ndarray:
        """(H, W, 3) world-space surface point seen by each pixel of frame k."""
        self.check_frame(k)
        origin, dirs = self._camera_rays(k)
        s = self.depth(k)
        return np.stack([origin[r] + s * dirs[r] for r in range(3)], axis=-1)

    def visible_from(self, k: int, i: int) -> np.ndarray:
        """(H, W) mask: True where no occluder lies between camera k's center and
        the surface point seen by each pixel of frame i.

        The mask is exact wherever `reproject`'s valid mask for the edge i -> k is
        set; elsewhere it may be either value, since a point outside camera k's
        view is only tested against the occluders in that view. The segment
        runs along z_i * ray_i + (c_i - c_k), from the cached depth of frame i,
        and a pixel is occluded when some in-view occluder's near root s lies in
        (1e-9, 1 - 1e-6]. The outer sphere is not tested: every surface point
        lies on or inside it, so its root is never below 1 - 1e-6.
        """
        self.check_frame(k)
        self.check_frame(i)
        occluders = self._occluders_in_view(k)
        shape = (self.spec.height, self.spec.width)
        if not occluders:
            return np.ones(shape, dtype=bool)
        z = self.depth(i)
        origin_i, rays = self._camera_rays(i)
        origin = self._centers[k]
        delta = origin_i - origin
        dx, dy, dz = (np.ravel(z * rays[r] + delta[r]) for r in range(3))
        dd = dx * dx + dy * dy + dz * dz
        visible = np.ones(dd.shape, dtype=bool)
        for n in occluders:
            hit, s = self._near_root(n, origin, dx, dy, dz, dd)
            visible[hit[(s > 1e-9) & (s <= 1.0 - 1e-6)]] = False
        return visible.reshape(shape)

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
    """Oracle implementations of all three provider roles for one scene.

    An edge with at least NOISE_THREAD_MIN pixel-noise values submits its
    normal draw to a single worker thread before any geometry, composes,
    reprojects and tests visibility on the calling thread, then waits for the
    draw and adds the noise. numpy's Generator releases the GIL while it fills
    an array, so the two overlap; the draw reads the same (seed, 31, i, j)
    stream as an inline one, so targets are bit-identical either way. Only the
    draw runs there. It shares nothing: the worker touches its own Generator
    and the buffer the caller allocated, never the scene or its depth cache.
    Visibility and depth stay on the calling thread: their many short numpy
    calls hold the GIL, so they would overlap little, and they read and fill
    the depth cache. Smaller edges draw inline, where the handoff costs more
    than the draw hides.

    The worker starts at the first offloaded draw, never at construction, and
    ends when the provider is dropped, through the executor's weakref callback.
    """

    def __init__(self, scene: SyntheticScene):
        self.scene = scene
        self._noise_pool: ThreadPoolExecutor | None = None

    def provide_correspondences(self, i: int, j: int, snapshot=None) -> CorrespondenceUpdate:
        """Ground-truth reprojection targets i -> j with configured pixel noise.

        Weights are 1 on pixels of i whose surface point is visible in j and
        0 elsewhere; deterministic per (seed, i, j).
        """
        scene = self.scene
        R, t = scene.relative_pose(i, j)  # checks i and j before they seed the noise stream
        sigma = scene.spec.pixel_noise
        drawn = None
        if sigma > 0:
            noise = np.empty((scene.spec.height, scene.spec.width, 2))
            rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 31, i, j]))
            if noise.size >= NOISE_THREAD_MIN:
                if self._noise_pool is None:
                    self._noise_pool = ThreadPoolExecutor(max_workers=1,
                                                          thread_name_prefix="flowsplat-noise")
                drawn = self._noise_pool.submit(rng.standard_normal, out=noise)
            else:
                rng.standard_normal(out=noise)
        try:
            target, valid = reproject(scene.depth(i), R, t, scene.intrinsics)
            seen = valid & scene.visible_from(j, i)
            # two column writes: a broadcast bool -> float assignment is about 3x slower
            weight = np.empty(target.shape)
            weight[..., 0] = seen
            weight[..., 1] = weight[..., 0]
        finally:
            if drawn is not None:
                drawn.result()  # the worker never writes into noise after this returns
        if sigma > 0:
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
        return np.maximum(d, 1e-6)

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
        data = self._load("flow_{:06d}_{:06d}.dspt", i, j)
        if data.shape[2] != 4:
            raise DataError(f"flow tensor for edge ({i},{j}) must have 4 channels")
        pairs = _channel_pairs(data)
        with np.errstate(invalid="ignore"):
            target, weight = (pairs[..., c, None].astype(np.complex128).view(np.float64)
                              for c in (0, 1))
        np.clip(weight, 0.0, 1.0, out=weight)
        return CorrespondenceUpdate((i, j), target, weight)

    def provide_depth_prior(self, k: int) -> np.ndarray:
        data = self._load("prior_{:06d}.dspt", k)
        if data.shape[2] != 1 or not np.all(np.isfinite(data)):
            raise DataError(f"prior tensor for frame {k} must be one channel of finite values")
        return np.maximum(data[..., 0], 1e-6, dtype=np.float64)

    def provide_place_feature(self, k: int) -> PlaceFeature:
        data = self._load("feat_{:06d}.dspt", k)
        with np.errstate(invalid="ignore"):
            vec = data.reshape(-1).astype(np.float64)
        n = np.linalg.norm(vec)
        if not 0.0 < n < np.inf:
            raise DataError(f"place feature for frame {k} is zero or not finite (norm {n})")
        return PlaceFeature(vec / n, k)


def dump_providers(providers: Providers, directory: str | Path, frames: range | list,
                   edges: list[tuple[int, int]]) -> None:
    """Write provider outputs as DSPT files usable by PrecomputedProviders."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{directory}: cannot create provider directory ({exc.strerror})") from exc
    for k in frames:
        write_dspt(directory / f"prior_{k:06d}.dspt", providers.provide_depth_prior(k))
        feat = providers.provide_place_feature(k).vector
        write_dspt(directory / f"feat_{k:06d}.dspt", feat.reshape(1, 1, -1))
    for (i, j) in edges:
        upd = providers.provide_correspondences(i, j)
        target, weight = (np.ascontiguousarray(a, dtype=np.float64)
                          for a in (upd.target, upd.weight))
        if target.ndim != 3 or target.shape[2] != 2 or weight.shape != target.shape:
            raise DataError(f"edge ({i},{j}): target and weight must both be (H, W, 2), "
                            f"got {target.shape} and {weight.shape}")
        # target and weight interleaved into the stored (H, W, 4) float32 layout
        flow = np.empty(target.shape[:2] + (4,), dtype=np.float32)
        pairs = _channel_pairs(flow)
        pairs[..., :1] = _channel_pairs(target)
        pairs[..., 1:] = _channel_pairs(weight)
        write_dspt(directory / f"flow_{i:06d}_{j:06d}.dspt", flow)
