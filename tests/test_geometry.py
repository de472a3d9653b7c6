import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from flowsplat.errors import ConfigError, DataError
from flowsplat.geometry import (PinholeIntrinsics, SE3Pose, act, compose, exp, inverse, log,
                                project, ray_grid, reproject, to_quat)

RNG = np.random.default_rng(7)


def random_pose(rng, rot_scale=1.0, trans_scale=1.0):
    return SE3Pose(*exp(np.concatenate([rng.normal(size=3) * trans_scale,
                                        rng.normal(size=3) * rot_scale])))


def angle_deg(Ra, Rb):
    """Geodesic angle between two rotations in degrees: |w| of log(Ra^T Rb)."""
    return float(np.degrees(np.linalg.norm(log(Ra.T @ Rb, np.zeros(3))[3:])))


def intr_100():
    return PinholeIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)


def pixel_centers(intr):
    """(H, W, 2) array of (u, v) pixel-center coordinates."""
    u, v = np.meshgrid(np.arange(intr.width, dtype=np.float64),
                       np.arange(intr.height, dtype=np.float64))
    return np.stack([u, v], axis=-1)


class TestSE3:
    def test_exp_zero_is_identity(self):
        R, t = exp(np.zeros(6))
        assert np.allclose(R, np.eye(3))
        assert np.allclose(t, 0)

    def test_exp_pure_yaw_pi(self):
        R, t = exp(np.array([0, 0, 0, 0, 0, np.pi]))
        assert np.allclose(t, 0, atol=1e-12)
        assert np.allclose(R @ np.array([1, 0, 0]), [-1, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_log_at_pi(self, axis):
        # q_w is exactly 0 here, so the small-angle branch must not divide by it
        w = np.zeros(3)
        w[axis] = np.pi
        R = np.diag(np.where(np.arange(3) == axis, 1.0, -1.0))
        xi = log(R, np.zeros(3))
        assert np.allclose(np.abs(xi), np.concatenate([np.zeros(3), w]), rtol=0, atol=1e-15)

    def test_log_exp_roundtrip(self):
        for _ in range(50):
            v = RNG.normal(size=6)
            v = v / np.linalg.norm(v) * RNG.uniform(0, np.pi / 2)
            assert np.allclose(log(*exp(v)), v, atol=1e-9)

    def test_exp_matches_matrix_exponential(self):
        # independent oracle: scipy matrix exponential of the twist matrix
        for _ in range(20):
            tau = RNG.normal(size=6) * 0.8
            T_ref = scipy.linalg.expm(twist_matrix(tau))
            assert np.allclose(SE3Pose(*exp(tau)).matrix(), T_ref, atol=1e-10)

    def test_compose_inverse_identity(self):
        for _ in range(20):
            g = random_pose(RNG)
            R, t = compose(*inverse(g.rotation, g.trans), g.rotation, g.trans)
            assert np.linalg.norm(t) < 1e-9
            assert angle_deg(R, np.eye(3)) < 1e-9

    def test_quaternion_stays_unit(self):
        g = SE3Pose(np.eye(3), np.zeros(3))
        for _ in range(200):
            g = g.compose(random_pose(RNG, rot_scale=0.3))
            assert abs(np.linalg.norm(to_quat(g.rotation)) - 1.0) < 1e-9
            assert np.abs(g.rotation.T @ g.rotation - np.eye(3)).max() < 1e-9

    @pytest.mark.parametrize("R", [
        np.zeros((3, 3)), 2 * np.eye(3), np.diag([1.0, 1.0, -1.0]),
        np.diag([1.0, 1.0, 1.0 + 1e-5]), np.diag([1.0, np.nan, 1.0]), np.diag([np.inf, 1, 1]),
        1e200 * np.eye(3), np.array([[0.6, 0.8, 0], [0.8, -0.6, 0], [0, 0, 1.0]]),
    ], ids=["zeros", "2I", "reflection", "stretched", "nan", "inf", "huge", "tilted_reflection"])
    def test_log_rejects_a_matrix_that_is_not_a_rotation(self, R):
        with pytest.raises(DataError, match="rotation"):
            log(R, np.zeros(3))
        # one bad matrix in a batch fails the whole batch
        with pytest.raises(DataError, match="rotation"):
            log(np.stack([np.eye(3), R]), np.zeros((2, 3)))

    @pytest.mark.parametrize("gap", [1e-5, 1e-9])
    def test_log_near_pi_matches_scipy_rotvec(self, gap):
        # independent oracle: scipy's rotation matrix for w
        rng = np.random.default_rng(11)
        for _ in range(20):
            axis = rng.normal(size=3)
            w = (np.pi - gap) * axis / np.linalg.norm(axis)
            R = Rotation.from_rotvec(w).as_matrix()
            assert np.abs(log(R, np.zeros(3))[3:] - w).max() < 1e-12

    def test_apply_matches_matrix(self):
        g = random_pose(RNG)
        pts = RNG.normal(size=(17, 3))
        hom = np.concatenate([pts, np.ones((17, 1))], axis=1)
        ref = (g.matrix() @ hom.T).T[:, :3]
        assert np.allclose(g.apply(pts), ref, atol=1e-12)


class TestRotationAngle:
    """The geodesic rotation angle read from log is a metric on rotations."""

    def test_same_rotation_zero(self):
        g = random_pose(RNG)
        assert angle_deg(g.rotation, g.rotation) == pytest.approx(0.0, abs=1e-9)

    def test_known_yaw(self):
        R, _ = exp(np.array([0, 0, 0, 0, np.radians(15.0), 0]))
        assert angle_deg(np.eye(3), R) == pytest.approx(15.0, abs=1e-9)

    def test_double_cover(self):
        # theta about n and theta - 2 pi about n are one rotation, with quaternions q and -q
        w = RNG.normal(size=3)
        w *= 2.0 / np.linalg.norm(w)
        Ra, _ = exp(np.concatenate([np.zeros(3), w]))
        Rb, _ = exp(np.concatenate([np.zeros(3), w * (1 - np.pi)]))
        assert angle_deg(Ra, Rb) == pytest.approx(0.0, abs=1e-7)

    def test_symmetry_and_triangle_inequality(self):
        for _ in range(100):
            a, b, c = (random_pose(RNG).rotation for _ in range(3))
            dab = angle_deg(a, b)
            dba = angle_deg(b, a)
            assert dab == pytest.approx(dba, abs=1e-9)
            dac = angle_deg(a, c)
            dcb = angle_deg(c, b)
            assert dab <= dac + dcb + 1e-9


class TestPinhole:
    def test_optical_axis(self):
        px, ok = project(np.array([0.0, 0, 1]), intr_100())
        assert np.allclose(px, [50, 50])
        assert ok

    def test_analytic_projection(self):
        px, ok = project(np.array([1.0, 0, 2]), intr_100())
        assert px[0] == pytest.approx(100.0)
        assert ok

    def test_behind_camera_flagged(self):
        _, ok = project(np.array([0.0, 0, -1]), intr_100())
        assert not ok

    def test_out_of_bounds_flagged(self):
        _, ok = project(np.array([5.0, 0, 1]), intr_100())
        assert not ok


class TestReproject:
    def test_identity_transform_is_identity_map(self):
        intr = intr_100()
        depth = RNG.uniform(0.5, 5.0, size=(100, 100))
        corr, ok = reproject(depth, np.eye(3), np.zeros(3), intr)
        assert ok.all()
        assert np.allclose(corr, pixel_centers(intr), atol=1e-12)

    def test_z_translation_expands_about_principal_point(self):
        # fronto-parallel plane at depth 2, camera moves 0.5 toward it:
        # closed-form homography is a pure scaling about (cx, cy) by 2/1.5
        intr = intr_100()
        depth = np.full((100, 100), 2.0)
        corr, ok = reproject(depth, np.eye(3), np.array([0, 0, -0.5]), intr)
        scale = 2.0 / 1.5
        expect = (pixel_centers(intr) - [50, 50]) * scale + [50, 50]
        assert np.allclose(corr[ok], expect[ok], atol=1e-9)
        assert ok.sum() > 1000

    def test_matches_per_pixel_scalar_loop(self):
        intr = PinholeIntrinsics(40.0, 44.0, 16.0, 15.0, 32, 30)
        depth = RNG.uniform(0.6, 3.0, size=(30, 32))
        g = random_pose(RNG, rot_scale=0.05, trans_scale=0.1)
        R, t = g.rotation, g.trans
        corr, ok = reproject(depth, R, t, intr)
        for v in range(0, 30, 3):
            for u in range(0, 32, 3):
                z = depth[v, u]
                pt = np.array([(u - intr.cx) / intr.fx * z, (v - intr.cy) / intr.fy * z, z])
                pj = R @ pt + t
                if pj[2] <= 1e-4:
                    assert not ok[v, u]
                    continue
                uu = intr.fx * pj[0] / pj[2] + intr.cx
                vv = intr.fy * pj[1] / pj[2] + intr.cy
                inb = 0 <= uu <= 32 and 0 <= vv <= 30
                assert ok[v, u] == inb
                if inb:
                    assert np.allclose(corr[v, u], [uu, vv], atol=1e-9)

    def test_equals_unproject_apply_project(self):
        # non-square image, fx != fy and an off-center principal point, so a
        # swapped row/column factor shows
        intr = PinholeIntrinsics(40.0, 44.0, 17.5, 13.0, 32, 30)
        rng = np.random.default_rng(5)
        depth = rng.uniform(0.6, 3.0, size=(30, 32))
        g = random_pose(rng, rot_scale=0.2, trans_scale=0.5)
        corr, ok = reproject(depth, g.rotation, g.trans, intr)
        xn, yn = ray_grid(intr)
        points = np.stack(np.broadcast_arrays(xn, yn, 1.0), axis=-1) * depth[..., None]
        ref, ref_ok = project(act(g.rotation, g.trans, points), intr)
        assert np.array_equal(ok, ref_ok)
        assert 0 < ok.sum() < ok.size
        assert np.allclose(corr, ref, rtol=1e-12, atol=1e-12)

    def test_rejects_nonpositive_depth(self):
        intr = PinholeIntrinsics(40.0, 44.0, 17.5, 13.0, 32, 30)
        for bad in (0.0, -1.0, np.nan, np.inf):
            depth = np.full((30, 32), 2.0)
            depth[3, 4] = bad
            with pytest.raises(DataError, match="depth"):
                reproject(depth, np.eye(3), np.zeros(3), intr)

    @pytest.mark.parametrize("shape", [(1, 32), (30, 1), (32, 30), (), (30, 32, 1)], ids=str)
    def test_rejects_depth_off_the_pixel_grid(self, shape):
        intr = PinholeIntrinsics(40.0, 44.0, 17.5, 13.0, 32, 30)
        with pytest.raises(DataError, match="shape"):
            reproject(np.full(shape, 2.0), np.eye(3), np.zeros(3), intr)


def interpolate(a, b, tau):
    """Geodesic from pose a (tau = 0) to pose b (tau = 1): exp(tau log(b a^-1)) a."""
    delta = log(*compose(b.rotation, b.trans, *inverse(a.rotation, a.trans)))
    return SE3Pose(*compose(*exp(tau * delta), a.rotation, a.trans))


def test_geodesic_interpolation_endpoint_and_midpoint():
    a = random_pose(RNG)
    b = random_pose(RNG)
    assert np.allclose(interpolate(a, b, 0.0).matrix(), a.matrix(), atol=1e-12)
    assert np.allclose(interpolate(a, b, 1.0).matrix(), b.matrix(), atol=1e-9)
    mid = interpolate(a, b, 0.5).rotation
    assert angle_deg(mid, a.rotation) == pytest.approx(angle_deg(mid, b.rotation), abs=1e-7)


def test_intrinsics_invariants():
    with pytest.raises(ConfigError):
        PinholeIntrinsics(-1.0, 100.0, 50.0, 50.0, 100, 100)
    with pytest.raises(ConfigError):
        PinholeIntrinsics(100.0, 100.0, 120.0, 50.0, 100, 100)


@pytest.mark.parametrize("field, value", [
    ("fx", np.inf), ("fy", np.inf), ("fx", np.nan), ("width", 100.5), ("width", 100.0),
    ("height", True), ("width", 0), ("height", -100),
], ids=str)
def test_intrinsics_reject_non_finite_focal_and_bad_sizes(field, value):
    params = dict(fx=100.0, fy=100.0, cx=0.5, cy=0.5, width=100, height=100)
    params[field] = value
    with pytest.raises(ConfigError):
        PinholeIntrinsics(**params)


# ---------------------------------------------------------------------------
# batched ops on the (N, 3, 3) + (N, 3) layout
# ---------------------------------------------------------------------------

@st.composite
def twists(draw, max_angle=np.pi - 1e-9):
    """(N, 6) twists (v, w) with |v_i| <= 5 and |w| in [0, max_angle]."""
    n = draw(st.integers(1, 6))
    v = draw(arrays(np.float64, (n, 3), elements=st.floats(-5, 5)))
    axis = draw(arrays(np.float64, (n, 3), elements=st.floats(-1, 1)))
    norm = np.linalg.norm(axis, axis=1, keepdims=True)
    axis = np.where(norm > 1e-3, axis / np.maximum(norm, 1e-3), [1.0, 0.0, 0.0])
    angle = draw(arrays(np.float64, (n, 1), elements=st.floats(0, max_angle)))
    return np.concatenate([v, angle * axis], axis=1)


def matrices(R, t):
    """(N, 4, 4) homogeneous matrices of a batch."""
    T = np.zeros(R.shape[:-2] + (4, 4))
    T[..., :3, :3], T[..., :3, 3], T[..., 3, 3] = R, t, 1.0
    return T


def twist_matrix(xi):
    T = np.zeros((4, 4))
    T[:3, :3] = [[0, -xi[5], xi[4]], [xi[5], 0, -xi[3]], [-xi[4], xi[3], 0]]
    T[:3, 3] = xi[:3]
    return T


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(twists(max_angle=3.0 * np.pi))
def test_batched_exp_matches_scipy_expm_of_each_twist(xi):
    T = matrices(*exp(xi))
    for row, twist in zip(T, xi):
        assert np.allclose(row, scipy.linalg.expm(twist_matrix(twist)), rtol=0, atol=1e-10)


@PROPERTY
@given(twists())
def test_batched_log_inverts_exp_up_to_pi(xi):
    assert np.abs(log(*exp(xi)) - xi).max() <= 1e-12


@PROPERTY
@given(twists(), twists(), arrays(np.float64, (6, 3), elements=st.floats(-10, 10)))
def test_batched_compose_inverse_act_match_4x4_products(xa, xb, points):
    n = min(len(xa), len(xb))
    (Ra, ta), (Rb, tb), p = exp(xa[:n]), exp(xb[:n]), points[:n]
    Ta, Tb = matrices(Ra, ta), matrices(Rb, tb)
    assert np.allclose(matrices(*compose(Ra, ta, Rb, tb)), Ta @ Tb, rtol=0, atol=1e-12)
    assert np.allclose(matrices(*inverse(Ra, ta)), np.linalg.inv(Ta), rtol=0, atol=1e-12)
    hom = np.concatenate([p, np.ones((n, 1))], axis=1)
    assert np.allclose(act(Ra, ta, p), (Ta @ hom[..., None])[:, :3, 0], rtol=0, atol=1e-12)


@PROPERTY
@given(twists(), twists(), arrays(np.float64, (6, 3), elements=st.floats(-10, 10)))
# a single pose's exp and log once squared through NumPy scalar pow, which rounds
# these two differently from the array loop
@example(xa=np.array([[-2.0808024996900665, -3.8510291733206503, 4.529001346514946,
                       1.9616679398528272, 0.9713446003675734, -0.2088835864096226]]),
         xb=np.zeros((1, 6)), points=np.zeros((6, 3)))
@example(xa=np.array([[1.0, 1.0, 1.0, 2.841247062672275, 0.0, 0.0]]),
         xb=np.zeros((1, 6)), points=np.zeros((6, 3)))
def test_batched_ops_equal_single_pose_calls_row_for_row(xa, xb, points):
    # row independence: row k of each batched op is that op on row k alone,
    # and SE3Pose's compose and apply give the same rows
    n = min(len(xa), len(xb))
    xa, xb, p = xa[:n], xb[:n], points[:n]
    (Ra, ta), (Rb, tb) = exp(xa), exp(xb)
    batched = {"exp": (Ra, ta), "log": (log(Ra, ta),), "compose": compose(Ra, ta, Rb, tb),
               "inverse": inverse(Ra, ta), "act": (act(Ra, ta, p),)}
    for k in range(n):
        single = {"exp": exp(xa[k]), "log": (log(Ra[k], ta[k]),),
                  "compose": compose(Ra[k], ta[k], Rb[k], tb[k]),
                  "inverse": inverse(Ra[k], ta[k]), "act": (act(Ra[k], ta[k], p[k]),)}
        for name, rows in batched.items():
            assert all(np.array_equal(row[k], one) for row, one in zip(rows, single[name])), name
        a, b = SE3Pose(Ra[k], ta[k]), SE3Pose(Rb[k], tb[k])
        ab = a.compose(b)
        Rab, tab = batched["compose"]
        assert np.array_equal(ab.rotation, Rab[k]) and np.array_equal(ab.trans, tab[k])
        assert np.array_equal(a.apply(p[k]), batched["act"][0][k])
