"""SE(3) poses, pinhole cameras and the projection/unprojection pair.

Conventions used everywhere in this package:
  * poses are world-to-camera: X_cam = R @ X_world + t
  * N poses are one rotation array (N, 3, 3) plus one translation array
    (N, 3). exp, log, compose, inverse and act take any leading dimensions,
    so one pose is the (3, 3) + (3,) case, and SE3Pose holds one such row.
  * quaternions (w, x, y, z) appear only at I/O (from_quat, to_quat,
    SE3Pose.quat, rotation_angle_between) and inside log, which reads the
    rotation angle from one (Shepperd's method, accurate up to pi)
  * se(3) tangents are 6-vectors (v, w): translation first, rotation second
  * pixel coordinates are (u, v) = (column, row), pixel centers at integers
  * depth is parameterized as disparity (inverse depth) wherever optimized
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z_MIN = 1e-4  # points closer than this to the image plane are flagged invalid


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit (w, x, y, z) quaternions, (..., 4); zero or non-finite ones raise ValueError."""
    q = np.asarray(q, dtype=np.float64)
    n = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    if not np.all((0.0 < n) & (n < np.inf)):
        raise ValueError(f"quaternion must be finite and nonzero, got {q}")
    return q / n


def from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of (w, x, y, z) quaternions (..., 4), normalized first."""
    q = quat_normalize(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(np.shape(w) + (3, 3))


def to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4), w >= 0, of rotation matrices (..., 3, 3).

    Shepperd's method: 4 q q^T is linear in R, and its row k is 4 q_k q, so
    normalizing it gives q up to sign. Taking k at the largest diagonal entry
    4 q_k^2 keeps that row well conditioned at every angle, pi included.
    """
    R = np.asarray(R, dtype=np.float64)
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
    q = quat_normalize(outer[k, :, np.arange(len(k))])
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
    sin, sq = np.sin(safe), theta**2
    A = np.where(small, 1 - sq / 6, sin / safe)
    # 1 - cos(theta) written as 2 sin^2(theta / 2), which does not cancel at small theta
    B = np.where(small, 0.5 - sq / 24, 2 * np.sin(0.5 * safe) ** 2 / safe**2)
    C = np.where(small, 1 / 6 - sq / 120, (safe - sin) / safe**3)
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
    D = np.where(small, 1 / 12 + theta**2 / 720, (1 - half / np.tan(half)) / (2 * half) ** 2)
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
    """One rigid transform X' = R X + t: one row of the batched (N, 3, 3) + (N, 3) layout.

    The arrays are held as given, not copied, so a pose taken from a stored
    batch is a view of its row. compose, inverse and apply run the batched ops on it.
    """

    rotation: np.ndarray  # (3, 3)
    trans: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "trans", np.asarray(self.trans, dtype=np.float64))

    @staticmethod
    def identity() -> "SE3Pose":
        return SE3Pose(np.eye(3), np.zeros(3))

    @property
    def quat(self) -> np.ndarray:
        """(w, x, y, z), w >= 0, derived from the rotation on each read."""
        return to_quat(self.rotation)

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        return SE3Pose(*compose(self.rotation, self.trans, other.rotation, other.trans))

    def inverse(self) -> "SE3Pose":
        return SE3Pose(*inverse(self.rotation, self.trans))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return act(self.rotation, self.trans, points)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.trans
        return T

    @staticmethod
    def from_matrix(T: np.ndarray) -> "SE3Pose":
        T = np.asarray(T, dtype=np.float64)
        return SE3Pose(T[:3, :3].copy(), T[:3, 3].copy())


def se3_exp(tangent: np.ndarray) -> SE3Pose:
    """Exponential map from a (v, w) 6-vector, used as the BA retraction."""
    return SE3Pose(*exp(tangent))


def se3_log(pose: SE3Pose) -> np.ndarray:
    """Logarithm as a (v, w) 6-vector with |w| in [0, pi]."""
    return log(pose.rotation, pose.trans)


def se3_interpolate(a: SE3Pose, b: SE3Pose, tau: float) -> SE3Pose:
    """Geodesic between two poses, tau in [0, 1]."""
    delta = se3_log(b.compose(a.inverse()))
    return se3_exp(tau * delta).compose(a)


def rotation_angle_between(a: SE3Pose | np.ndarray, b: SE3Pose | np.ndarray) -> float:
    """Geodesic rotation distance in degrees, in [0, 180]; a and b may be raw quaternions."""
    qa = a.quat if isinstance(a, SE3Pose) else quat_normalize(a)
    qb = b.quat if isinstance(b, SE3Pose) else quat_normalize(b)
    qb = qb if np.dot(qa, qb) >= 0 else -qb
    # |qa -+ qb| = 2 sin(theta / 4) and 2 cos(theta / 4): exact at 0, where an arccos is not
    return float(np.degrees(4.0 * np.arctan2(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb))))


@dataclass(frozen=True)
class PinholeIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(f"principal point ({self.cx}, {self.cy}) outside image "
                             f"{self.width}x{self.height}")

    def as_vector(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.cx, self.cy])

    def with_params(self, params: np.ndarray) -> "PinholeIntrinsics":
        fx, fy, cx, cy = [float(x) for x in params]
        return PinholeIntrinsics(fx, fy, cx, cy, self.width, self.height)

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0, self.cx], [0, self.fy, self.cy], [0, 0, 1.0]])


def heuristic_intrinsics(width: int, height: int) -> PinholeIntrinsics:
    """Uncalibrated-video initialization: fx = fy = (H + W) / 2, principal point centered."""
    f = (height + width) / 2.0
    return PinholeIntrinsics(f, f, width / 2.0, height / 2.0, width, height)


def pixel_grid(intr: PinholeIntrinsics) -> np.ndarray:
    """(H, W, 2) array of (u, v) pixel-center coordinates."""
    u, v = np.meshgrid(np.arange(intr.width, dtype=np.float64),
                       np.arange(intr.height, dtype=np.float64))
    return np.stack([u, v], axis=-1)


def ray_grid(intr: PinholeIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Separable normalized rays of the pixel centers: xn (W,) and yn (H, 1).

    Pixel (u, v) at depth Z is the camera-frame point (xn[u] Z, yn[v] Z, Z);
    the two factors broadcast to (H, W) without building a pixel grid.
    """
    xn = (np.arange(intr.width, dtype=np.float64) - intr.cx) / intr.fx
    yn = ((np.arange(intr.height, dtype=np.float64) - intr.cy) / intr.fy)[:, None]
    return xn, yn


def _project_components(x, y, z, intr: PinholeIntrinsics, z_min: float):
    """Pinhole projection of camera-frame coordinates given as three arrays."""
    safe_z = np.where(np.abs(z) > 1e-300, z, 1e-300)
    u = intr.fx * x / safe_z + intr.cx
    v = intr.fy * y / safe_z + intr.cy
    pixels = np.stack([u, v], axis=-1)
    eps = 1e-9  # guards exact-boundary pixels against roundoff
    valid = ((z > z_min) & (u >= -eps) & (u <= intr.width + eps)
             & (v >= -eps) & (v <= intr.height + eps))
    return pixels, valid


def project(points: np.ndarray, intr: PinholeIntrinsics, z_min: float = Z_MIN):
    """Pinhole projection of (..., 3) camera-frame points.

    Returns (pixels (..., 2), valid (...,)). Points behind the z_min plane or
    landing outside the image bounds are flagged invalid, never raised on.
    """
    points = np.asarray(points, dtype=np.float64)
    return _project_components(points[..., 0], points[..., 1], points[..., 2], intr, z_min)


def _rays_and_depth(pixels, values, intr: PinholeIntrinsics, depth: bool = False):
    """Normalized ray components (xn, yn) of (..., 2) pixels and the depth Z.

    values holds the disparity 1 / Z, or Z itself when depth is set.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.any(values <= 0):
        raise ValueError(f"unproject requires strictly positive {'depth' if depth else 'disparity'}")
    if pixels is None:
        xn, yn = ray_grid(intr)
    else:
        pixels = np.asarray(pixels, dtype=np.float64)
        xn = (pixels[..., 0] - intr.cx) / intr.fx
        yn = (pixels[..., 1] - intr.cy) / intr.fy
    return xn, yn, values if depth else 1.0 / values


def unproject(pixels: np.ndarray, disparity: np.ndarray, intr: PinholeIntrinsics) -> np.ndarray:
    """Back-project (..., 2) pixels at the given disparity into the camera frame."""
    xn, yn, z = _rays_and_depth(pixels, disparity, intr)
    return np.stack([xn * z, yn * z, z], axis=-1)


def reproject(disparity: np.ndarray, relative: SE3Pose, intr: PinholeIntrinsics,
              pixels: np.ndarray | None = None, *, depth: bool = False):
    """Dense correspondence field: unproject -> rigid transform -> project.

    disparity is (H, W); relative maps source-camera coords into the target
    camera. With depth set, the first argument is the depth Z itself, so a
    caller that holds depth skips the 1 / (1 / Z) round trip, which costs two
    divides and moves Z in the last bit. Returns (correspondences (H, W, 2),
    valid mask (H, W)).

    The transform is applied per component, X_r = (R[r,0] xn + R[r,1] yn + R[r,2]) Z + t[r],
    so with the default pixel grid the bracket is a separable (W,) + (H, 1) sum
    and no (H, W, 3) array is built.
    """
    xn, yn, z = _rays_and_depth(pixels, disparity, intr, depth)
    R, t = relative.rotation, relative.trans
    X, Y, Z = ((R[r, 0] * xn + R[r, 1] * yn + R[r, 2]) * z + t[r] for r in range(3))
    return _project_components(X, Y, Z, intr, Z_MIN)
