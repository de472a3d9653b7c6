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
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import ConfigError, DataError
# project is not called here; perfbench/spans.py wraps it in this module by name
from .geometry import PinholeIntrinsics, SE3Pose, project, ray_grid, reproject

DSPT_MAGIC = b"DSPT"
DSPT_VERSION = 1

FEATURE_DIM = 64
DEPTH_CACHE_FRAMES = 8  # SyntheticScene.depth keeps this many frames (0.6 MB each at 240x320)
CONE_MARGIN = 1e-6  # rad; the view-cone cull keeps occluders this close to the cone
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


class Providers(Protocol):
    """The three provider roles; SyntheticProviders and PrecomputedProviders implement it."""

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
    fps: float = 30.0
    occluders: int = 6  # number of small floating spheres
    texture_freq: float = 2.5
    pixel_noise: float = 0.0  # correspondence noise sigma, pixels
    prior_scale_range: tuple[float, float] = (1.0, 1.0)  # per-frame a_t
    prior_offset_range: tuple[float, float] = (0.0, 0.0)  # per-frame b_t
    prior_noise: float = 0.0  # multiplicative disparity noise sigma
    feature_noise: float = 0.0

    def __post_init__(self):
        if self.frames < 2:
            raise ConfigError(f"scene needs at least 2 frames, got {self.frames}")
        if self.trajectory not in ("orbit", "line", "rotate"):
            raise ConfigError(f"unknown trajectory type '{self.trajectory}'")
        if self.height < 8 or self.width < 8:
            raise ConfigError("scene resolution must be at least 8x8")
        # each test is written so that NaN fails it too
        for name in ("pixel_noise", "prior_noise", "feature_noise"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.occluders < 0:
            raise ConfigError(f"occluders must be >= 0, got {self.occluders}")
        if not 0.0 < self.fps < math.inf:
            raise ConfigError(f"fps must be finite and > 0, got {self.fps}")
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


def _look_at_c2w(center: np.ndarray, forward: np.ndarray) -> SE3Pose:
    f = forward / np.linalg.norm(forward)
    f_list = f.tolist()
    r = np.array(_cross(f_list, (0.0, 0.0, 1.0)))
    if np.linalg.norm(r) < 1e-8:
        r = np.array(_cross(f_list, (0.0, 1.0, 0.0)))
    r = r / np.linalg.norm(r)
    T = np.eye(4)
    T[:3, 0] = r
    T[:3, 1] = _cross(f_list, r.tolist())
    T[:3, 2] = f
    T[:3, 3] = center
    return SE3Pose.from_matrix(T)


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
        if n > 0:
            phi = rng.uniform(0, 2 * np.pi, size=n)
            rad = rng.uniform(3.4, 4.6, size=n)
            z = rng.uniform(-1.2, 1.2, size=n)
            self.sphere_centers = np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
            self.sphere_radii = rng.uniform(0.45, 0.8, size=n)
            self.sphere_colors = rng.uniform(0.15, 0.85, size=(n, 3))
        else:
            self.sphere_centers = np.zeros((0, 3))
            self.sphere_radii = np.zeros(0)
            self.sphere_colors = np.zeros((0, 3))
        self._poses_c2w = [self._trajectory_pose(k) for k in range(spec.frames)]
        self._poses_w2c = [p.inverse() for p in self._poses_c2w]
        self._prior_affine = self._draw_prior_affine()
        self._feature_mix = np.random.default_rng(
            np.random.SeedSequence([spec.seed, 777])).normal(size=(FEATURE_DIM, 6))
        self._depth_cache: OrderedDict[int, np.ndarray] = OrderedDict()

    # -- trajectory ---------------------------------------------------------

    def _trajectory_pose(self, k: int) -> SE3Pose:
        n = self.spec.frames
        s = k / n
        if self.spec.trajectory == "orbit":
            phi = 2 * np.pi * s
            center = np.array([ORBIT_RADIUS * np.cos(phi), ORBIT_RADIUS * np.sin(phi),
                               0.25 * np.sin(2 * phi)])
            fwd = np.array([np.cos(phi), np.sin(phi), -0.08])
        elif self.spec.trajectory == "line":
            t = (s - 0.5) * 3.0
            center = np.array([t, -0.4 * np.sin(np.pi * s), 0.2 * np.sin(2 * np.pi * s)])
            yaw = 0.25 * np.sin(2 * np.pi * s)
            fwd = np.array([np.sin(yaw), np.cos(yaw), -0.05])
        else:  # rotate: fixed center, single-axis yaw sweep
            yaw = 1.2 * s
            center = np.array([0.5, 0.0, 0.0])
            fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        return _look_at_c2w(center, fwd)

    def timestamp(self, k: int) -> float:
        return k / self.spec.fps

    def pose_c2w(self, k: int) -> SE3Pose:
        return self._poses_c2w[k]

    def pose_w2c(self, k: int) -> SE3Pose:
        return self._poses_w2c[k]

    def camera_center(self, k: int) -> np.ndarray:
        return self._poses_c2w[k].trans

    def diameter(self) -> float:
        pts = np.stack([p.trans for p in self._poses_c2w])
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        return float(max(d.max(), 1e-9))

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
        o = self.camera_center(k).tolist()
        axis = self._poses_c2w[k].rotation[:, 2].tolist()
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

    def _cast(self, origin: np.ndarray, dirs, occluders=None):
        """Nearest intersection along origin + s * (dx, dy, dz).

        dirs is the tuple of direction components, equal-shaped arrays. They may
        be unnormalized; the returned s is in units of dirs (so with camera-frame
        dirs (xn, yn, 1) it is the pinhole depth Z directly). Dot products are
        scalar x array sums over the components, and each occluder's root and
        nearest-hit update are evaluated only on the pixels where its
        discriminant is positive. occluders lists the occluder indices to test,
        default all of them; a caller passes fewer only when the others provably
        miss every ray. Returns (s, object id), both shaped like the components,
        with id -1 for the outer sphere, else occluder index.
        """
        dx, dy, dz = (np.ravel(d) for d in dirs)
        dd = dx * dx + dy * dy + dz * dz
        od = origin[0] * dx + origin[1] * dy + origin[2] * dz
        oo = float(origin @ origin)
        # outer sphere: we are inside, take the positive root
        disc = od**2 - dd * (oo - OUTER_RADIUS**2)
        s_best = (-od + np.sqrt(np.maximum(disc, 0.0))) / dd
        obj = np.full(s_best.shape, -1, dtype=np.int64)
        if occluders is None:
            occluders = range(len(self.sphere_radii))
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
        R = self._poses_c2w[k].rotation
        dirs = tuple(R[r, 0] * xn + R[r, 1] * yn + R[r, 2] for r in range(3))
        return self.camera_center(k), dirs

    def depth(self, k: int) -> np.ndarray:
        """Exact per-pixel pinhole depth Z for frame k, as a read-only array.

        The last DEPTH_CACHE_FRAMES frames asked for are kept.
        """
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
        fr = self.spec.texture_freq
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
        origin, dirs = self._camera_rays(k)
        s, obj = self._cast(origin, dirs, self._occluders_in_view(k))
        pts = np.stack([origin[r] + s * dirs[r] for r in range(3)], axis=-1)
        return self._surface_color(pts, obj)

    def world_points(self, k: int) -> np.ndarray:
        """(H, W, 3) world-space surface point seen by each pixel of frame k."""
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
        occluders = self._occluders_in_view(k)
        shape = (self.spec.height, self.spec.width)
        if not occluders:
            return np.ones(shape, dtype=bool)
        z = self.depth(i)
        origin_i, rays = self._camera_rays(i)
        origin = self.camera_center(k)
        delta = origin_i - origin
        dx, dy, dz = (np.ravel(z * rays[r] + delta[r]) for r in range(3))
        dd = dx * dx + dy * dy + dz * dz
        visible = np.ones(dd.shape, dtype=bool)
        for n in occluders:
            hit, s = self._near_root(n, origin, dx, dy, dz, dd)
            visible[hit[(s > 1e-9) & (s <= 1.0 - 1e-6)]] = False
        return visible.reshape(shape)

    # -- prior corruption ---------------------------------------------------

    def _draw_prior_affine(self):
        lo_a, hi_a = self.spec.prior_scale_range
        lo_b, hi_b = self.spec.prior_offset_range
        out = []
        for k in range(self.spec.frames):
            rng = np.random.default_rng(np.random.SeedSequence([self.spec.seed, 1000 + k]))
            out.append((float(rng.uniform(lo_a, hi_a)), float(rng.uniform(lo_b, hi_b))))
        return out

    def prior_affine(self, k: int) -> tuple[float, float]:
        """Ground-truth per-frame corruption (a_t, b_t) of the depth prior."""
        return self._prior_affine[k]


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

    The worker starts at the first offloaded draw, never at construction.
    `close()` (or leaving a `with` block) ends it, and so does dropping the
    provider.
    """

    def __init__(self, scene: SyntheticScene):
        self.scene = scene
        self._noise_pool: ThreadPoolExecutor | None = None

    def close(self):
        """End the noise worker, if one was started; a later offloaded edge starts another."""
        if self._noise_pool is not None:
            self._noise_pool.shutdown(wait=True)
            self._noise_pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _check_frame(self, k: int):
        if not (0 <= k < self.scene.spec.frames):
            raise DataError(f"frame {k} not in scene (0..{self.scene.spec.frames - 1})")

    def provide_correspondences(self, i: int, j: int, snapshot=None) -> CorrespondenceUpdate:
        """Ground-truth reprojection targets i -> j with configured pixel noise.

        Weights are 1 on pixels of i whose surface point is visible in j and
        0 elsewhere; deterministic per (seed, i, j).
        """
        self._check_frame(i)
        self._check_frame(j)
        scene = self.scene
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
            rel = scene.pose_w2c(j).compose(scene.pose_c2w(i))
            target, valid = reproject(scene.disparity(i), rel, scene.intrinsics)
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
        # out-of-view targets carry zero weight; keep values finite regardless
        target[~np.isfinite(target)] = 0.0
        return CorrespondenceUpdate((i, j), target, weight)

    def provide_depth_prior(self, k: int) -> np.ndarray:
        """Disparity prior d* = a_k * d_true + b_k with multiplicative noise."""
        self._check_frame(k)
        scene = self.scene
        a, b = scene.prior_affine(k)
        d = a * scene.disparity(k) + b
        if scene.spec.prior_noise > 0:
            rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 63, k]))
            d = d * np.exp(scene.spec.prior_noise * rng.normal(size=d.shape))
        return np.maximum(d, 1e-6)

    def provide_place_feature(self, k: int) -> PlaceFeature:
        """Smooth unit-norm embedding of the true camera position/orientation."""
        self._check_frame(k)
        scene = self.scene
        fwd = scene.pose_c2w(k).rotation[:, 2]
        z = np.concatenate([scene.camera_center(k) / ORBIT_RADIUS, fwd])
        raw = scene._feature_mix @ z
        if scene.spec.feature_noise > 0:
            rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 97, k]))
            raw = raw + scene.spec.feature_noise * rng.normal(size=raw.shape)
        return PlaceFeature(raw / np.linalg.norm(raw), k)


# ---------------------------------------------------------------------------
# DSPT tensor files and the precomputed-tensor adapter
# ---------------------------------------------------------------------------

def write_dspt(path: str | Path, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=np.float32)
    if array.ndim == 2:
        array = array[..., None]
    if array.ndim != 3:
        raise DataError(f"DSPT arrays must be (H, W, C), got shape {array.shape}")
    h, w, c = array.shape
    with open(path, "wb") as fh:
        fh.write(DSPT_MAGIC)
        fh.write(struct.pack("<IIII", DSPT_VERSION, h, w, c))
        fh.write(array.astype("<f4").tobytes(order="C"))


def read_dspt(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 20 or raw[:4] != DSPT_MAGIC:
        raise DataError(f"{path}: not a DSPT tensor file")
    version, h, w, c = struct.unpack("<IIII", raw[4:20])
    if version != DSPT_VERSION:
        raise DataError(f"{path}: unsupported DSPT version {version}")
    if 0 in (h, w, c):
        raise DataError(f"{path}: empty DSPT tensor ({h}x{w}x{c})")
    expect = 20 + h * w * c * 4
    if len(raw) != expect:
        raise DataError(f"{path}: truncated DSPT payload ({len(raw)} vs {expect} bytes)")
    data = np.frombuffer(raw, dtype="<f4", offset=20).reshape(h, w, c)
    # a signalling-NaN payload flags "invalid" in the cast; the callers' validators reject NaN
    with np.errstate(invalid="ignore"):
        return data.astype(np.float64)


class PrecomputedProviders:
    """Adapter reading provider tensors from a directory of DSPT files."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise DataError(f"provider directory {directory} does not exist")

    def _load(self, name: str) -> np.ndarray:
        path = self.directory / name
        if not path.exists():
            raise DataError(f"missing provider tensor {path}")
        return read_dspt(path)

    def provide_correspondences(self, i: int, j: int, snapshot=None) -> CorrespondenceUpdate:
        data = self._load(f"flow_{i:06d}_{j:06d}.dspt")
        if data.shape[2] != 4:
            raise DataError(f"flow tensor for edge ({i},{j}) must have 4 channels")
        return CorrespondenceUpdate((i, j), data[..., :2].copy(),
                                    np.clip(data[..., 2:4], 0.0, 1.0))

    def provide_depth_prior(self, k: int) -> np.ndarray:
        data = self._load(f"prior_{k:06d}.dspt")
        if data.shape[2] != 1 or not np.all(np.isfinite(data)):
            raise DataError(f"prior tensor for frame {k} must be one channel of finite values")
        return np.maximum(data[..., 0], 1e-6)

    def provide_place_feature(self, k: int) -> PlaceFeature:
        data = self._load(f"feat_{k:06d}.dspt")
        vec = data.reshape(-1)
        n = np.linalg.norm(vec)
        if not 0.0 < n < np.inf:
            raise DataError(f"place feature for frame {k} is zero or not finite (norm {n})")
        return PlaceFeature(vec / n, k)


def dump_providers(providers: Providers, directory: str | Path, frames: range | list,
                   edges: list[tuple[int, int]]) -> None:
    """Write provider outputs as DSPT files usable by PrecomputedProviders."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for k in frames:
        write_dspt(directory / f"prior_{k:06d}.dspt", providers.provide_depth_prior(k))
        feat = providers.provide_place_feature(k).vector
        write_dspt(directory / f"feat_{k:06d}.dspt", feat.reshape(1, 1, -1))
    for (i, j) in edges:
        upd = providers.provide_correspondences(i, j)
        write_dspt(directory / f"flow_{i:06d}_{j:06d}.dspt",
                   np.concatenate([upd.target, upd.weight], axis=-1))
