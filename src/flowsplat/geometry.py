"""SE(3) poses, pinhole cameras and the projection/unprojection pair.

Conventions used everywhere in this package:
  * poses are world-to-camera: X_cam = R @ X_world + t
  * quaternions are stored (w, x, y, z) and kept unit norm
  * se(3) tangents are 6-vectors (v, w): translation first, rotation second
  * pixel coordinates are (u, v) = (column, row), pixel centers at integers
  * depth is parameterized as disparity (inverse depth) wherever optimized
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z_MIN = 1e-4  # points closer than this to the image plane are flagged invalid


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if not 0.0 < n < np.inf:
        raise ValueError(f"quaternion must be finite and nonzero, got {q}")
    return q / n


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest diagonal pivot for stability.
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s,
                      (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                      0.25 * s, (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


@dataclass(frozen=True)
class SE3Pose:
    """Rigid transform stored as unit quaternion (w,x,y,z) + translation."""

    quat: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "quat", quat_normalize(self.quat))
        object.__setattr__(self, "trans", np.asarray(self.trans, dtype=np.float64).copy())

    @staticmethod
    def identity() -> "SE3Pose":
        return SE3Pose(np.array([1.0, 0, 0, 0]), np.zeros(3))

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.quat)

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        q = quat_multiply(self.quat, other.quat)
        t = self.rotation @ other.trans + self.trans
        return SE3Pose(q, t)

    def inverse(self) -> "SE3Pose":
        qi = self.quat * np.array([1.0, -1, -1, -1])
        Ri = quat_to_matrix(qi)
        return SE3Pose(qi, -(Ri @ self.trans))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.trans

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.trans
        return T

    @staticmethod
    def from_matrix(T: np.ndarray) -> "SE3Pose":
        return SE3Pose(quat_from_matrix(T[:3, :3]), T[:3, 3])


def _so3_left_jacobian(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-6:
        return np.eye(3) + 0.5 * W + (W @ W) / 6.0
    a = (1.0 - np.cos(theta)) / theta**2
    b = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + a * W + b * (W @ W)


def _so3_left_jacobian_inv(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-6:
        return np.eye(3) - 0.5 * W + (W @ W) / 12.0
    half = 0.5 * theta
    cot = half / np.tan(half)
    return np.eye(3) - 0.5 * W + (1.0 - cot) / theta**2 * (W @ W)


def se3_exp(tangent: np.ndarray) -> SE3Pose:
    """Exponential map from a (v, w) 6-vector, used as the BA retraction."""
    tangent = np.asarray(tangent, dtype=np.float64)
    v, w = tangent[:3], tangent[3:]
    half = 0.5 * np.linalg.norm(w)
    # np.sinc(x) = sin(pi x) / (pi x), so the vector part is sin(theta/2) * w / theta
    q = np.concatenate([[np.cos(half)], 0.5 * np.sinc(half / np.pi) * w])
    return SE3Pose(q, _so3_left_jacobian(w) @ v)


def se3_log(pose: SE3Pose) -> np.ndarray:
    """Logarithm as a (v, w) 6-vector with |w| in [0, pi], taken from the quaternion."""
    q = pose.quat if pose.quat[0] >= 0 else -pose.quat
    n = np.linalg.norm(q[1:])
    # theta = 2 atan2(n, q_w) is well conditioned up to pi; 2 / q_w is its n -> 0 limit
    w = (2.0 * np.arctan2(n, q[0]) / n if n > 1e-12 else 2.0 / q[0]) * q[1:]
    v = _so3_left_jacobian_inv(w) @ pose.trans
    return np.concatenate([v, w])


def se3_interpolate(a: SE3Pose, b: SE3Pose, tau: float) -> SE3Pose:
    """Geodesic between two poses, tau in [0, 1]."""
    delta = se3_log(b.compose(a.inverse()))
    return se3_exp(tau * delta).compose(a)


def rotation_angle_between(a: SE3Pose | np.ndarray, b: SE3Pose | np.ndarray) -> float:
    """Geodesic rotation distance in degrees, in [0, 180]."""
    qa = a.quat if isinstance(a, SE3Pose) else quat_normalize(a)
    qb = b.quat if isinstance(b, SE3Pose) else quat_normalize(b)
    d = np.clip(abs(float(np.dot(qa, qb))), 0.0, 1.0)
    return float(np.degrees(2.0 * np.arccos(d)))


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


def _rays_and_depth(pixels, disparity, intr: PinholeIntrinsics):
    """Normalized ray components (xn, yn) of (..., 2) pixels and the depth 1 / disparity."""
    disparity = np.asarray(disparity, dtype=np.float64)
    if np.any(disparity <= 0):
        raise ValueError("unproject requires strictly positive disparity")
    if pixels is None:
        xn, yn = ray_grid(intr)
    else:
        pixels = np.asarray(pixels, dtype=np.float64)
        xn = (pixels[..., 0] - intr.cx) / intr.fx
        yn = (pixels[..., 1] - intr.cy) / intr.fy
    return xn, yn, 1.0 / disparity


def unproject(pixels: np.ndarray, disparity: np.ndarray, intr: PinholeIntrinsics) -> np.ndarray:
    """Back-project (..., 2) pixels at the given disparity into the camera frame."""
    xn, yn, z = _rays_and_depth(pixels, disparity, intr)
    return np.stack([xn * z, yn * z, z], axis=-1)


def reproject(disparity: np.ndarray, relative: SE3Pose, intr: PinholeIntrinsics,
              pixels: np.ndarray | None = None):
    """Dense correspondence field: unproject -> rigid transform -> project.

    disparity is (H, W); relative maps source-camera coords into the target
    camera. Returns (correspondences (H, W, 2), valid mask (H, W)).

    The transform is applied per component, X_r = (R[r,0] xn + R[r,1] yn + R[r,2]) Z + t[r],
    so with the default pixel grid the bracket is a separable (W,) + (H, 1) sum
    and no (H, W, 3) array is built.
    """
    xn, yn, z = _rays_and_depth(pixels, disparity, intr)
    R, t = relative.rotation, relative.trans
    X, Y, Z = ((R[r, 0] * xn + R[r, 1] * yn + R[r, 2]) * z + t[r] for r in range(3))
    return _project_components(X, Y, Z, intr, Z_MIN)
