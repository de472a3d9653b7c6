"""SE(3) poses, the pinhole camera, projection and dense reprojection.

Conventions used everywhere in this package:
  * poses are world-to-camera: X_cam = R @ X_world + t
  * N poses are one rotation array (N, 3, 3) plus one translation array
    (N, 3). exp, log, compose, inverse and act are the one pose algebra: they
    take any leading dimensions, so one pose is the (3, 3) + (3,) case
  * rotations are (3, 3) matrices only: log reads its rotation vector from
    scipy's Rotation.from_matrix(...).as_rotvec(), and raises DataError unless
    R is (..., 3, 3), finite, orthonormal to ROTATION_TOL and det R > 0, and t
    finite of shape R.shape[:-2] + (3,)
  * se(3) tangents are 6-vectors (v, w): translation first, rotation second; exp
    raises DataError unless its twists are finite and (..., 6)
  * pixel coordinates are (u, v) = (column, row), pixel centers at integers
  * `_pinhole` is the one projection: given Z, it builds X and then Y, each projected in
    place. project feeds it copies of its point columns, reproject `_component` rows of
    the separable R (xn Z, yn Z, Z) + t over `ray_grid`'s (H, W) grid, so besides the
    result at most two (H, W) planes are live. reproject takes a finite (3, 3) + (3,)
    (R, t) row and finite depth Z > 0 on that grid, else DataError
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

Z_MIN = 1e-4  # points closer than this to the image plane are flagged invalid
ROTATION_TOL = 1e-6  # largest |R^T R - I| entry that log accepts
SAFE_Z = 1e-300  # `_pinhole` divides by this where |Z| is not larger; such points are invalid
BOUND_EPS = 1e-9  # `_pinhole`'s slack at the image bounds, so exact-boundary pixels stay valid


# each check tests the exact builtin types first: the numbers ABC test costs ~0.8 us a call

def _integer_at_least(value, least: int) -> bool:
    """True for an integer value >= least; numpy integers count, bools do not."""
    if type(value) is int:
        return value >= least
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _real(value) -> bool:
    """True for a real number; numpy floats and integers count, bools do not."""
    return (type(value) is float or type(value) is int
            or (isinstance(value, numbers.Real) and not isinstance(value, bool)))


def hat(w: np.ndarray) -> np.ndarray:
    """Skew matrices (..., 3, 3) with hat(w) @ p = w x p, of vectors (..., 3)."""
    w = np.asarray(w, dtype=np.float64)
    W = np.zeros(w.shape[:-1] + (3, 3))
    W[..., 0, 1], W[..., 0, 2], W[..., 1, 2] = -w[..., 2], w[..., 1], -w[..., 0]
    W[..., 1, 0], W[..., 2, 0], W[..., 2, 1] = w[..., 2], -w[..., 1], w[..., 0]
    return W


def _rotate(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """R @ p for (..., 3, 3) rotations and (..., 3) points, one column at a time.

    Elementwise, so each row's result does not depend on the batch around it,
    and as fast as BLAS on (M, 3) point arrays.
    """
    return p[..., 0, None] * R[..., :, 0] + p[..., 1, None] * R[..., :, 1] \
        + p[..., 2, None] * R[..., :, 2]


def _angle(w: np.ndarray) -> np.ndarray:
    return np.sqrt(w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1] + w[..., 2] * w[..., 2])


def exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential map of (..., 6) twists (v, w): rotations (..., 3, 3), translations (..., 3).

    R = I + A W + B W^2 (Rodrigues) and t = V v with V = I + B W + C W^2,
    where W = hat(w), A = sin(theta) / theta, B = (1 - cos(theta)) / theta^2
    and C = (theta - sin(theta)) / theta^3. DataError unless xi is finite and (..., 6).
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape[-1:] != (6,) or not np.isfinite(xi).all():
        raise DataError(f"exp needs finite (..., 6) twists, got shape {xi.shape}")
    v, w = xi[..., :3], xi[..., 3:]
    theta = _angle(w)
    small = theta < 1e-4  # below this, each series' next term is under 1e-18
    safe = np.where(small, 1.0, theta)
    # squares as products: a NumPy scalar's ** calls pow, which can round a
    # square differently from the array loop, so one pose would not equal its batch row
    sin, sq, safe_sq, half_sin = np.sin(safe), theta * theta, safe * safe, np.sin(0.5 * safe)
    A = np.where(small, 1 - sq / 6, sin / safe)
    # 1 - cos(theta) written as 2 sin^2(theta / 2), which does not cancel at small theta
    B = np.where(small, 0.5 - sq / 24, 2 * (half_sin * half_sin) / safe_sq)
    C = np.where(small, 1 / 6 - sq / 120, (safe - sin) / (safe_sq * safe))
    A, B, C = A[..., None, None], B[..., None, None], C[..., None, None]
    W = hat(w)
    W2 = W @ W
    return np.eye(3) + A * W + B * W2, _rotate(np.eye(3) + B * W + C * W2, v)


def log(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Logarithm of (..., 3, 3) + (..., 3) poses as (..., 6) twists (v, w), |w| in [0, pi].

    w is scipy's rotation vector of R, Rotation.from_matrix(R).as_rotvec(), which
    stays accurate up to pi, where an arccos of the trace does not. R is checked
    first: DataError unless it is (..., 3, 3), finite, orthonormal to ROTATION_TOL
    and det R > 0; then t: DataError unless it is finite, of shape R.shape[:-2] + (3,).
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape[-2:] != (3, 3):
        raise DataError(f"rotation matrices must be (..., 3, 3), got shape {R.shape}")
    # entries in [-1, 1] first (NaN fails too), so R^T R cannot warn on NaN, inf or overflow
    if not np.all(np.abs(R) <= 1 + ROTATION_TOL):
        raise DataError("rotation matrices must be finite, with entries in [-1, 1]")
    if not (np.all(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)) <= ROTATION_TOL)
            and np.all(np.linalg.det(R) > 0)):
        raise DataError(f"not a rotation: |R^T R - I| > {ROTATION_TOL} or det R <= 0")
    t = np.asarray(t, dtype=np.float64)
    if t.shape != R.shape[:-2] + (3,) or not np.all(np.isfinite(t)):
        raise DataError(f"translations must be finite, of shape {R.shape[:-2] + (3,)}, "
                        f"got {t.shape}")
    # imported here: scipy.spatial adds ~37 MB and 0.3 s to a process that never calls log
    from scipy.spatial.transform import Rotation
    w = Rotation.from_matrix(R.reshape(-1, 3, 3)).as_rotvec().reshape(R.shape[:-1])
    theta = _angle(w)
    small = theta < 1e-4
    half = 0.5 * np.where(small, 1.0, theta)
    # V^-1 = I - W / 2 + D W^2 with D = (1 - (theta / 2) cot(theta / 2)) / theta^2
    # squares as products, as in exp
    D = np.where(small, 1 / 12 + theta * theta / 720,
                 (1 - half / np.tan(half)) / ((2 * half) * (2 * half)))
    W = hat(w)
    V_inv = np.eye(3) - 0.5 * W + D[..., None, None] * (W @ W)
    return np.concatenate([_rotate(V_inv, t), w], axis=-1)


def compose(Ra: np.ndarray, ta: np.ndarray, Rb: np.ndarray, tb: np.ndarray):
    """Poses a o b (apply b, then a), row by row: (Ra Rb, Ra tb + ta)."""
    return Ra @ Rb, _rotate(Ra, tb) + ta


def inverse(R: np.ndarray, t: np.ndarray):
    """Inverse poses (R^T, -R^T t), with the transposed rotations copied contiguous."""
    Ri = np.swapaxes(R, -1, -2).copy()
    return Ri, -_rotate(Ri, t)


def act(R: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """R p + t; points (..., 3) broadcast against the poses' leading dimensions."""
    return _rotate(R, np.asarray(points, dtype=np.float64)) + t


@dataclass(frozen=True)
class SE3Pose:
    """One rigid transform X' = R X + t, held as the given (3, 3) + (3,) arrays.

    Only `SyntheticScene.pose_c2w` builds one. It keeps what the benchmark pins by
    name: perfbench/spans.py wraps compose and apply, perfbench/oracle.py calls
    `pose_c2w(k).matrix()`. ROADMAP.md's benchmark item deletes the class.
    """

    rotation: np.ndarray  # (3, 3)
    trans: np.ndarray  # (3,)

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        return SE3Pose(*compose(self.rotation, self.trans, other.rotation, other.trans))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return act(self.rotation, self.trans, points)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.trans
        return T


@dataclass(frozen=True)
class PinholeIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if not _integer_at_least(value, 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in ("fx", "fy", "cx", "cy"):
            if not _real(getattr(self, name)):
                raise ConfigError(f"{name} must be a real number, got {getattr(self, name)!r}")
        # each test is written so that NaN fails it too
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ConfigError(f"focal lengths must be finite and positive, got fx={self.fx}, "
                              f"fy={self.fy}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ConfigError(f"principal point ({self.cx}, {self.cy}) outside image "
                              f"{self.width}x{self.height}")


def heuristic_intrinsics(width: int, height: int) -> PinholeIntrinsics:
    """Uncalibrated-video initialization: fx = fy = (H + W) / 2, principal point centered."""
    f = (height + width) / 2.0
    return PinholeIntrinsics(f, f, width / 2.0, height / 2.0, width, height)


def ray_grid(intr: PinholeIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Separable normalized rays of the pixel centers: xn (W,) and yn (H, 1).

    Pixel (u, v) at depth Z is the camera-frame point (xn[u] Z, yn[v] Z, Z);
    the two factors broadcast to (H, W) without building a pixel grid.
    """
    xn = (np.arange(intr.width, dtype=np.float64) - intr.cx) / intr.fx
    yn = ((np.arange(intr.height, dtype=np.float64) - intr.cy) / intr.fy)[:, None]
    return xn, yn


def _component(z, R: np.ndarray, t: np.ndarray, grid: tuple[np.ndarray, np.ndarray], r: int):
    """Row r of R (xn z, yn z, z) + t as one new array: (R[r,0] xn + R[r,1] yn + R[r,2]) z + t[r].

    The bracket is a separable (W,) + (H, 1) sum, so no (H, W, 3) array is built;
    numpy's temporary elision writes the product with z into the bracket's buffer.
    """
    xn, yn = grid
    out = (R[r, 0] * xn + R[r, 1] * yn + R[r, 2]) * z
    out += t[r]
    return out


def backproject(z, R: np.ndarray, t: np.ndarray, grid: tuple[np.ndarray, np.ndarray]):
    """Components (X, Y, Z), each (H, W), of R (xn z, yn z, z) + t for (xn, yn) = grid.

    grid is a `ray_grid` pair; each component is one `_component` row.
    """
    return tuple(_component(z, R, t, grid, r) for r in range(3))


def _pinhole(Z: np.ndarray, row, intr: PinholeIntrinsics):
    """Pinhole projection (pixels (..., 2), valid (...,)) of camera-frame Z, X = row(0), Y = row(1).

    Overwrites Z and each row, which is projected in place and freed before the next is built.
    """
    valid = Z > Z_MIN
    Z[~(np.abs(Z) > SAFE_Z)] = SAFE_Z
    pixels = np.empty(Z.shape + (2,))
    for r, f, c, size in ((0, intr.fx, intr.cx, intr.width), (1, intr.fy, intr.cy, intr.height)):
        coord = row(r)
        coord *= f
        coord /= Z
        coord += c
        valid &= coord >= -BOUND_EPS
        valid &= coord <= size + BOUND_EPS
        pixels[..., r] = coord
        del coord  # freed before the next row is built
    return pixels, valid


def project(points: np.ndarray, intr: PinholeIntrinsics):
    """Pinhole projection of finite (..., 3) camera-frame points, else DataError.

    Returns (pixels (..., 2), valid (...,)). Points behind the Z_MIN plane or
    landing outside the image bounds are flagged invalid, not raised on.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[-1:] != (3,) or not np.isfinite(points).all():
        raise DataError(f"project needs finite (..., 3) points, got shape {points.shape}")
    return _pinhole(points[..., 2].copy(), lambda r: points[..., r].copy(), intr)


def reproject(depth: np.ndarray, R: np.ndarray, t: np.ndarray, intr: PinholeIntrinsics):
    """Dense correspondence field of a depth map: back-project -> rigid transform -> project.

    depth is the finite, strictly positive (H, W) depth Z of every pixel center on
    `ray_grid`; the finite (3, 3) + (3,) pose (R, t) maps source-camera coords into
    the target camera (else DataError). Returns (correspondences (H, W, 2), valid mask (H, W)),
    `_pinhole` of `backproject(depth, R, t, ray_grid(intr))`, each row built when asked for.
    """
    R, t = np.asarray(R, dtype=np.float64), np.asarray(t, dtype=np.float64)
    # shapes first; math.isfinite over tolist takes about 1 us, a third of np.isfinite twice
    if not (R.shape == (3, 3) and t.shape == (3,)
            and all(map(math.isfinite, R.ravel().tolist() + t.tolist()))):
        raise DataError(f"reproject needs a finite (3, 3) rotation and (3,) translation, "
                        f"got shapes {R.shape} and {t.shape}")
    z = np.asarray(depth, dtype=np.float64)
    # shape first, so min and max never see an empty array; NaN fails either bound
    if z.shape != (intr.height, intr.width) or not (0 < z.min() and z.max() < math.inf):
        raise DataError(f"reproject needs finite, positive depth of shape "
                        f"{(intr.height, intr.width)}, got shape {z.shape}")
    grid = ray_grid(intr)
    return _pinhole(_component(z, R, t, grid, 2), lambda r: _component(z, R, t, grid, r), intr)
