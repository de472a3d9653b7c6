import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from flowsplat.geometry import (PinholeIntrinsics, SE3Pose, act, compose, exp, from_quat,
                                inverse, log, pixel_grid, project, reproject,
                                rotation_angle_between, se3_exp, se3_interpolate, se3_log,
                                unproject)

RNG = np.random.default_rng(7)


def random_pose(rng, rot_scale=1.0, trans_scale=1.0):
    return se3_exp(np.concatenate([rng.normal(size=3) * trans_scale,
                                   rng.normal(size=3) * rot_scale]))


def intr_100():
    return PinholeIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)


class TestSE3:
    def test_exp_zero_is_identity(self):
        g = se3_exp(np.zeros(6))
        assert np.allclose(g.quat, [1, 0, 0, 0])
        assert np.allclose(g.trans, 0)

    def test_exp_pure_yaw_pi(self):
        g = se3_exp(np.array([0, 0, 0, 0, 0, np.pi]))
        assert np.allclose(g.trans, 0, atol=1e-12)
        R = g.rotation
        assert np.allclose(R @ np.array([1, 0, 0]), [-1, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_log_at_pi(self, axis):
        # q_w is exactly 0 here, so the small-angle branch must not divide by it
        w = np.zeros(3)
        w[axis] = np.pi
        R = np.diag(np.where(np.arange(3) == axis, 1.0, -1.0))
        xi = se3_log(SE3Pose(R, np.zeros(3)))
        assert np.allclose(np.abs(xi), np.concatenate([np.zeros(3), w]), rtol=0, atol=1e-15)

    def test_log_exp_roundtrip(self):
        for _ in range(50):
            v = RNG.normal(size=6)
            v = v / np.linalg.norm(v) * RNG.uniform(0, np.pi / 2)
            assert np.allclose(se3_log(se3_exp(v)), v, atol=1e-9)

    def test_exp_matches_matrix_exponential(self):
        # independent oracle: scipy matrix exponential of the twist matrix
        for _ in range(20):
            tau = RNG.normal(size=6) * 0.8
            twist = np.zeros((4, 4))
            twist[:3, :3] = np.array([[0, -tau[5], tau[4]],
                                      [tau[5], 0, -tau[3]],
                                      [-tau[4], tau[3], 0]])
            twist[:3, 3] = tau[:3]
            T_ref = scipy.linalg.expm(twist)
            assert np.allclose(se3_exp(tau).matrix(), T_ref, atol=1e-10)

    def test_compose_inverse_identity(self):
        for _ in range(20):
            g = random_pose(RNG)
            gi = g.inverse().compose(g)
            assert np.linalg.norm(gi.trans) < 1e-9
            assert rotation_angle_between(gi, SE3Pose.identity()) < 1e-9

    def test_quaternion_stays_unit(self):
        g = SE3Pose.identity()
        for _ in range(200):
            g = g.compose(random_pose(RNG, rot_scale=0.3))
            assert abs(np.linalg.norm(g.quat) - 1.0) < 1e-9
            assert np.abs(g.rotation.T @ g.rotation - np.eye(3)).max() < 1e-9

    @pytest.mark.parametrize("quat", [np.zeros(4), [np.nan, 0, 0, 0], [np.inf, 0, 0, 0]])
    def test_rejects_zero_or_non_finite_quaternion(self, quat):
        with pytest.raises(ValueError):
            SE3Pose(from_quat(np.asarray(quat)), np.zeros(3))

    @pytest.mark.parametrize("gap", [1e-5, 1e-9])
    def test_log_near_pi_matches_scipy_rotvec(self, gap):
        # independent oracle: scipy's rotation matrix for w, read back via from_matrix
        rng = np.random.default_rng(11)
        for _ in range(20):
            axis = rng.normal(size=3)
            w = (np.pi - gap) * axis / np.linalg.norm(axis)
            T = np.eye(4)
            T[:3, :3] = Rotation.from_rotvec(w).as_matrix()
            assert np.abs(se3_log(SE3Pose.from_matrix(T))[3:] - w).max() < 1e-12

    def test_apply_matches_matrix(self):
        g = random_pose(RNG)
        pts = RNG.normal(size=(17, 3))
        hom = np.concatenate([pts, np.ones((17, 1))], axis=1)
        ref = (g.matrix() @ hom.T).T[:, :3]
        assert np.allclose(g.apply(pts), ref, atol=1e-12)


class TestRotationAngle:
    def test_same_rotation_zero(self):
        g = random_pose(RNG)
        assert rotation_angle_between(g, g) == pytest.approx(0.0, abs=1e-9)

    def test_known_yaw(self):
        a = SE3Pose.identity()
        b = se3_exp(np.array([0, 0, 0, 0, np.radians(15.0), 0]))
        assert rotation_angle_between(a, b) == pytest.approx(15.0, abs=1e-9)

    def test_double_cover(self):
        g = random_pose(RNG)
        assert rotation_angle_between(g.quat, -g.quat) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("quat", [np.zeros(4), [np.nan, 0, 0, 0], [np.inf, 0, 0, 0]])
    def test_rejects_zero_or_non_finite_raw_quaternion(self, quat):
        with pytest.raises(ValueError):
            rotation_angle_between(np.asarray(quat), SE3Pose.identity())
        with pytest.raises(ValueError):
            rotation_angle_between(SE3Pose.identity().quat, np.asarray(quat))

    def test_symmetry_and_triangle_inequality(self):
        for _ in range(100):
            a, b, c = (random_pose(RNG) for _ in range(3))
            dab = rotation_angle_between(a, b)
            dba = rotation_angle_between(b, a)
            assert dab == pytest.approx(dba, abs=1e-9)
            dac = rotation_angle_between(a, c)
            dcb = rotation_angle_between(c, b)
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

    def test_unproject_principal_point(self):
        p = unproject(np.array([50.0, 50.0]), 0.5, intr_100())
        assert np.allclose(p, [0, 0, 2])

    def test_unproject_analytic(self):
        p = unproject(np.array([150.0, 50.0]), 1.0, intr_100())
        assert np.allclose(p, [1, 0, 1])

    def test_unproject_rejects_nonpositive_disparity(self):
        with pytest.raises(ValueError):
            unproject(np.array([50.0, 50.0]), 0.0, intr_100())

    def test_project_unproject_roundtrip(self):
        intr = intr_100()
        for _ in range(200):
            px = RNG.uniform([0, 0], [99, 99])
            d = RNG.uniform(0.05, 5.0)
            back, ok = project(unproject(px, d, intr), intr)
            assert ok
            assert np.allclose(back, px, atol=1e-9)


class TestReproject:
    def test_identity_transform_is_identity_map(self):
        intr = intr_100()
        disp = RNG.uniform(0.2, 2.0, size=(100, 100))
        corr, ok = reproject(disp, SE3Pose.identity(), intr)
        assert ok.all()
        assert np.allclose(corr, pixel_grid(intr), atol=1e-12)

    def test_z_translation_expands_about_principal_point(self):
        # fronto-parallel plane at depth 2, camera moves 0.5 toward it:
        # closed-form homography is a pure scaling about (cx, cy) by 2/1.5
        intr = intr_100()
        disp = np.full((100, 100), 0.5)
        fwd = SE3Pose(np.eye(3), np.array([0, 0, -0.5]))
        corr, ok = reproject(disp, fwd, intr)
        grid = pixel_grid(intr)
        scale = 2.0 / 1.5
        expect = (grid - [50, 50]) * scale + [50, 50]
        assert np.allclose(corr[ok], expect[ok], atol=1e-9)
        assert ok.sum() > 1000

    def test_matches_per_pixel_scalar_loop(self):
        intr = PinholeIntrinsics(40.0, 44.0, 16.0, 15.0, 32, 30)
        disp = RNG.uniform(0.3, 1.5, size=(30, 32))
        g = random_pose(RNG, rot_scale=0.05, trans_scale=0.1)
        corr, ok = reproject(disp, g, intr)
        R, t = g.rotation, g.trans
        for v in range(0, 30, 3):
            for u in range(0, 32, 3):
                z = 1.0 / disp[v, u]
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
        disp = rng.uniform(0.3, 1.5, size=(30, 32))
        g = random_pose(rng, rot_scale=0.2, trans_scale=0.5)
        corr, ok = reproject(disp, g, intr)
        ref, ref_ok = project(g.apply(unproject(pixel_grid(intr), disp, intr)), intr)
        assert np.array_equal(ok, ref_ok)
        assert 0 < ok.sum() < ok.size
        assert np.allclose(corr, ref, rtol=1e-12, atol=1e-12)
        corr_px, ok_px = reproject(disp, g, intr, pixels=pixel_grid(intr))
        assert np.array_equal(corr_px, corr) and np.array_equal(ok_px, ok)

    def test_depth_path_equals_disparity_path_on_the_inverse(self):
        intr = PinholeIntrinsics(40.0, 44.0, 17.5, 13.0, 32, 30)
        rng = np.random.default_rng(6)
        disp = rng.uniform(0.3, 1.5, size=(30, 32))
        g = random_pose(rng, rot_scale=0.2, trans_scale=0.5)
        corr, ok = reproject(disp, g, intr)
        corr_z, ok_z = reproject(1.0 / disp, g, intr, depth=True)
        assert np.array_equal(corr_z, corr) and np.array_equal(ok_z, ok)
        depth = 1.0 / disp
        depth[3, 4] = 0.0
        with pytest.raises(ValueError, match="depth"):
            reproject(depth, g, intr, depth=True)


def test_geodesic_interpolation_endpoint_and_midpoint():
    a = random_pose(RNG)
    b = random_pose(RNG)
    assert np.allclose(se3_interpolate(a, b, 0.0).matrix(), a.matrix(), atol=1e-12)
    assert np.allclose(se3_interpolate(a, b, 1.0).matrix(), b.matrix(), atol=1e-9)
    mid = se3_interpolate(a, b, 0.5)
    assert rotation_angle_between(mid, a) == pytest.approx(rotation_angle_between(mid, b), abs=1e-7)


def test_intrinsics_invariants():
    with pytest.raises(ValueError):
        PinholeIntrinsics(-1.0, 100.0, 50.0, 50.0, 100, 100)
    with pytest.raises(ValueError):
        PinholeIntrinsics(100.0, 100.0, 120.0, 50.0, 100, 100)


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
def test_batched_ops_equal_single_pose_calls_row_for_row(xa, xb, points):
    n = min(len(xa), len(xb))
    xa, xb, p = xa[:n], xb[:n], points[:n]
    (Ra, ta), (Rb, tb) = exp(xa), exp(xb)
    batched = {"compose": compose(Ra, ta, Rb, tb), "inverse": inverse(Ra, ta)}
    logs, acted = log(Ra, ta), act(Ra, ta, p)
    for k in range(n):
        a, b = se3_exp(xa[k]), SE3Pose(Rb[k], tb[k])
        assert np.array_equal(a.rotation, Ra[k]) and np.array_equal(a.trans, ta[k])
        assert np.array_equal(se3_log(a), logs[k])
        assert np.array_equal(a.apply(p[k]), acted[k])
        for name, single in [("compose", a.compose(b)), ("inverse", a.inverse())]:
            R, t = batched[name]
            assert np.array_equal(single.rotation, R[k]) and np.array_equal(single.trans, t[k])
