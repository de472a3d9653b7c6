"""SE(3) poses, the pinhole camera, projection and dense reprojection.

Conventions used everywhere in this package:
  * poses are world-to-camera: X_cam = R @ X_world + t
  * N poses are one rotation array (N, 3, 3) plus one translation array
    (N, 3). exp, log, compose, inverse and act are the one pose algebra: they
    take any leading dimensions, so one pose is the (3, 3) + (3,) case
  * quaternions (w, x, y, z) appear only inside log, through to_quat, which
    reads the rotation angle from one (Shepperd's method, accurate up to pi);
    both raise DataError unless R is finite, orthonormal to ROTATION_TOL and det R > 0
  * se(3) tangents are 6-vectors (v, w): translation first, rotation second
  * pixel coordinates are (u, v) = (column, row), pixel centers at integers
  * reproject takes an (R, t) row and depth Z > 0 on `ray_grid`'s (H, W) grid, else DataError
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

Z_MIN = 1e-4  # points closer than this to the image plane are flagged invalid
ROTATION_TOL = 1e-6  # largest |R^T R - I| entry that to_quat and log accept


def to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4), w >= 0, of rotation matrices (..., 3, 3).

    Shepperd's method: 4 q q^T is linear in R, and its row k is 4 q_k q, so
    normalizing it gives q up to sign. Taking k at the largest diagonal entry
    4 q_k^2 keeps that row well conditioned at every angle, pi included.
    """
    R = np.asarray(R, dtype=np.float64)
    # entries in [-1, 1] first (NaN fails too), so R^T R cannot warn on NaN, inf or overflow
    if not np.all(np.abs(R) <= 1 + ROTATION_TOL):
        raise DataError("rotation matrices must be finite, with entries in [-1, 1]")
    if not (np.all(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)) <= ROTATION_TOL)
            and np.all(np.linalg.det(R) > 0)):
        raise DataError(f"not a rotation: |R^T R - I| > {ROTATION_TOL} or det R <= 0")
    # one contiguous (M,) array per entry: elementwise work on strided views is slower
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R.reshape(-1, 9).T.copy()
    a, b, c = r21 - r12, r02 - r20, r10 - r01
    e, f, g = r01 + r10, r02 + r20, r12 + r21
    outer = np.array([  # 4 q q^T, (4, 4, M), rows and columns in (w, x, y, z) order
        [1 + r00 + r11 + r22, a, b, c],
        [a, 1 + r00 - r11 - r22, e, f],
        [b, e, 1 - r00 + r11 - r22, g],
        [c, f, g, 1 - r00 - r11 + r22],
    ])
    k = np.argmax(outer[[0, 1, 2, 3], [0, 1, 2, 3]], axis=0)
    q = outer[k, :, np.arange(len(k))]
    q = q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    return np.where(q[..., :1] < 0, -q, q).reshape(R.shape[:-2] + (4,))


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
    and C = (theta - sin(theta)) / theta^3.
    """
    xi = np.asarray(xi, dtype=np.float64)
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

    The angle comes from the quaternion, theta = 2 atan2(|q_xyz|, q_w), which
    stays well conditioned up to pi, where an arccos of the trace does not.
    """
    q = to_quat(R)
    qw, qv = q[..., 0], q[..., 1:]
    n = _angle(qv)
    tiny = n <= 1e-12
    # 2 / q_w is the n -> 0 limit of 2 atan2(n, q_w) / n
    scale = np.where(tiny, 2.0 / np.where(tiny, qw, 1.0),
                     2.0 * np.arctan2(n, qw) / np.where(tiny, 1.0, n))
    w = scale[..., None] * qv
    theta = _angle(w)
    small = theta < 1e-4
    half = 0.5 * np.where(small, 1.0, theta)
    # V^-1 = I - W / 2 + D W^2 with D = (1 - (theta / 2) cot(theta / 2)) / theta^2
    # squares as products, as in exp
    D = np.where(small, 1 / 12 + theta * theta / 720,
                 (1 - half / np.tan(half)) / ((2 * half) * (2 * half)))
    W = hat(w)
    V_inv = np.eye(3) - 0.5 * W + D[..., None, None] * (W @ W)
    return np.concatenate([_rotate(V_inv, np.asarray(t, dtype=np.float64)), w], axis=-1)


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
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
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


def _project_components(x, y, z, intr: PinholeIntrinsics):
    """Pinhole projection of camera-frame coordinates given as three arrays."""
    safe_z = np.where(np.abs(z) > 1e-300, z, 1e-300)
    u = intr.fx * x / safe_z + intr.cx
    v = intr.fy * y / safe_z + intr.cy
    pixels = np.stack([u, v], axis=-1)
    eps = 1e-9  # guards exact-boundary pixels against roundoff
    valid = ((z > Z_MIN) & (u >= -eps) & (u <= intr.width + eps)
             & (v >= -eps) & (v <= intr.height + eps))
    return pixels, valid


def project(points: np.ndarray, intr: PinholeIntrinsics):
    """Pinhole projection of (..., 3) camera-frame points.

    Returns (pixels (..., 2), valid (...,)). Points behind the Z_MIN plane or
    landing outside the image bounds are flagged invalid, never raised on.
    """
    points = np.asarray(points, dtype=np.float64)
    return _project_components(points[..., 0], points[..., 1], points[..., 2], intr)


def reproject(depth: np.ndarray, R: np.ndarray, t: np.ndarray, intr: PinholeIntrinsics):
    """Dense correspondence field of a depth map: back-project -> rigid transform -> project.

    depth is the finite, strictly positive (H, W) depth Z of every pixel center on
    `ray_grid` (else DataError); the (3, 3) + (3,) pose (R, t) maps source-camera
    coords into the target camera. Returns (correspondences (H, W, 2), valid mask (H, W)).

    The transform is applied per component, X_r = (R[r,0] xn + R[r,1] yn + R[r,2]) Z + t[r],
    so the bracket is a separable (W,) + (H, 1) sum and no (H, W, 3) array is built.
    """
    z = np.asarray(depth, dtype=np.float64)
    # shape first, so min and max never see an empty array; NaN fails either bound
    if z.shape != (intr.height, intr.width) or not (0 < z.min() and z.max() < math.inf):
        raise DataError(f"reproject needs finite, positive depth of shape "
                        f"{(intr.height, intr.width)}, got shape {z.shape}")
    xn, yn = ray_grid(intr)
    X, Y, Z = ((R[r, 0] * xn + R[r, 1] * yn + R[r, 2]) * z + t[r] for r in range(3))
    return _project_components(X, Y, Z, intr)
