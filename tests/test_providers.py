"""Provider outputs checked against scalar oracles on the synthetic scene, and
the validators and DSPT reader checked on malformed input."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsplat.errors import DataError
from flowsplat.geometry import Z_MIN
from flowsplat.providers import (DEPTH_CACHE_FRAMES, DSPT_MAGIC, DSPT_VERSION, OUTER_RADIUS,
                                 CorrespondenceUpdate, PlaceFeature, PrecomputedProviders,
                                 SceneSpec, SyntheticProviders, SyntheticScene, dump_providers,
                                 read_dspt, write_dspt)

H, W = 24, 32
FRAMES = [3, 4, 5, 6]
EDGES = [(3, 4), (4, 2), (5, 8), (6, 3)]  # forward and backward, one to three frames apart
PRIOR_FLOOR = 1e-6


@pytest.fixture(scope="module", params=["orbit", "line", "rotate"])
def scene(request):
    return SyntheticScene(SceneSpec(trajectory=request.param, frames=24, height=H, width=W,
                                    seed=0, occluders=6, prior_scale_range=(0.5, 2.0),
                                    prior_offset_range=(-0.6, 0.1)))


def scalar_edge(scene, i, j, u, v):
    """Pixel (u, v) of frame i in frame j with 4x4 matrices: (world point, camera-j point, pixel)."""
    intr = scene.intrinsics
    z = scene.depth(i)[v, u]
    x_i = np.array([(u - intr.cx) / intr.fx * z, (v - intr.cy) / intr.fy * z, z, 1.0])
    x_w = scene.pose_c2w(i).matrix() @ x_i
    x_j = np.linalg.inv(scene.pose_c2w(j).matrix()) @ x_w
    pixel = np.array([intr.fx * x_j[0] / x_j[2] + intr.cx, intr.fy * x_j[1] / x_j[2] + intr.cy])
    return x_w[:3], x_j[:3], pixel


def scalar_occluded(scene, j, point):
    """Whether any occluder sphere cuts the segment from camera j's center to point."""
    origin = scene.pose_c2w(j).matrix()[:3, 3]
    d = point - origin
    for c, r in zip(scene.sphere_centers, scene.sphere_radii):
        oc = origin - c
        b, dd = oc @ d, d @ d
        disc = b * b - dd * (oc @ oc - r * r)
        if disc > 0 and 1e-9 < (-b - np.sqrt(disc)) / dd < 1.0 - 1e-6:
            return True
    return False


def scalar_cast(scene, origin, d):
    """Nearest hit along origin + s * d, one ray at a time from the closed-form roots.

    Returns (s, object id): the outer sphere's far root with id -1, unless an
    occluder's near root lies in (1e-9, s).
    """
    o, d = [float(x) for x in origin], [float(x) for x in d]

    def roots(center, radius):
        oc = [o[k] - center[k] for k in range(3)]
        a = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2]
        disc = b * b - a * (oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - radius * radius)
        if disc <= 0:
            return None
        return (-b - math.sqrt(disc)) / a, (-b + math.sqrt(disc)) / a

    s, obj = roots((0.0, 0.0, 0.0), OUTER_RADIUS)[1], -1
    for i, (c, r) in enumerate(zip(scene.sphere_centers, scene.sphere_radii)):
        hit = roots(c, r)
        if hit is not None and 1e-9 < hit[0] < s:
            s, obj = hit[0], i
    return s, obj


unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 20), origin=st.tuples(*[st.floats(-3.4, 3.4)] * 3),
       dirs=st.lists(st.tuples(unit, unit, unit).filter(lambda d: math.hypot(*d) > 0.1),
                     min_size=1, max_size=24))
def test_cast_matches_scalar_ray_loop(seed, origin, dirs):
    # origins lie inside the outer sphere (|o| <= 3.4 * sqrt(3) < 6), sometimes
    # inside an occluder, whose near root is then behind the ray
    scene = SyntheticScene(SceneSpec(frames=2, seed=seed, occluders=6))
    origin, d = np.array(origin), np.array(dirs)
    s, obj = scene._cast(origin, (d[:, 0], d[:, 1], d[:, 2]))
    assert s.shape == obj.shape == (len(dirs),)
    for n, ray in enumerate(d):
        s_ref, obj_ref = scalar_cast(scene, origin, ray)
        assert obj[n] == obj_ref
        assert s[n] == pytest.approx(s_ref, rel=1e-12)


def test_depth_matches_scalar_ray_loop(scene):
    intr = scene.intrinsics
    hits = 0
    for k in FRAMES:
        c2w = scene.pose_c2w(k).matrix()
        depth = scene.depth(k)
        for v in range(H):
            for u in range(W):
                ray = c2w[:3, :3] @ [(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0]
                s_ref, obj_ref = scalar_cast(scene, c2w[:3, 3], ray)
                assert depth[v, u] == pytest.approx(s_ref, rel=1e-12), (k, u, v)
                hits += obj_ref >= 0
    # both the outer sphere and the occluders are hit, so both roots are pinned
    assert 0 < hits < len(FRAMES) * H * W


def test_depth_cache_keeps_recent_frames_and_recomputes_evicted_ones_bit_identically():
    scene = SyntheticScene(SceneSpec(frames=24, height=H, width=W, seed=0))
    first = scene.depth(0).copy()
    for k in range(20):
        scene.depth(k)
        assert len(scene._depth_cache) <= DEPTH_CACHE_FRAMES
    assert list(scene._depth_cache) == list(range(20 - DEPTH_CACHE_FRAMES, 20))
    scene.depth(12)  # least recently used becomes most recently used
    scene.depth(20)
    assert 12 in scene._depth_cache and 13 not in scene._depth_cache
    assert np.array_equal(scene.depth(0), first)


def test_targets_match_scalar_reprojection(scene):
    providers = SyntheticProviders(scene)
    for i, j in EDGES:
        target = providers.provide_correspondences(i, j).target
        for v in range(H):
            for u in range(W):
                _, x_j, pixel = scalar_edge(scene, i, j, u, v)
                if x_j[2] > Z_MIN:
                    assert np.allclose(target[v, u], pixel, rtol=1e-12, atol=1e-9)


def test_weights_match_scalar_visibility(scene):
    providers = SyntheticProviders(scene)
    occluded_in_view = out_of_view = 0
    for i, j in EDGES:
        weight = providers.provide_correspondences(i, j).weight
        assert np.array_equal(weight[..., 0], weight[..., 1])
        for v in range(H):
            for u in range(W):
                x_w, x_j, (pu, pv) = scalar_edge(scene, i, j, u, v)
                in_view = x_j[2] > Z_MIN and 0 <= pu <= W and 0 <= pv <= H
                occluded = scalar_occluded(scene, j, x_w)
                assert weight[v, u, 0] == float(in_view and not occluded), (i, j, u, v)
                occluded_in_view += in_view and occluded
                out_of_view += not in_view
    # both reasons for a zero weight occur, so both are pinned; the rotate
    # camera never leaves one center, so nothing it saw is ever occluded
    assert out_of_view > 0
    assert (occluded_in_view > 0) == (scene.spec.trajectory != "rotate")


def test_prior_is_floored_affine_disparity(scene):
    providers = SyntheticProviders(scene)
    floored = 0
    for k in FRAMES:
        a, b = scene.prior_affine(k)
        expect = np.maximum(a * (1.0 / scene.depth(k)) + b, PRIOR_FLOOR)
        prior = providers.provide_depth_prior(k)
        assert prior.shape == (H, W)
        assert np.allclose(prior, expect, rtol=1e-12, atol=0)
        floored += int((prior == PRIOR_FLOOR).sum())
    assert 0 < floored < len(FRAMES) * H * W


def _as_stored(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def test_dump_then_precomputed_equals_float32_cast(scene, tmp_path):
    synthetic = SyntheticProviders(scene)
    dump_providers(synthetic, tmp_path, FRAMES, EDGES)
    precomputed = PrecomputedProviders(tmp_path)
    for i, j in EDGES:
        want, got = synthetic.provide_correspondences(i, j), precomputed.provide_correspondences(i, j)
        assert got.edge == (i, j)
        assert np.array_equal(got.target, _as_stored(want.target))
        assert np.array_equal(got.weight, _as_stored(want.weight))
    for k in FRAMES:
        prior = precomputed.provide_depth_prior(k)
        assert np.array_equal(prior, np.maximum(_as_stored(synthetic.provide_depth_prior(k)),
                                                PRIOR_FLOOR))
        vec = _as_stored(synthetic.provide_place_feature(k).vector)
        assert np.array_equal(precomputed.provide_place_feature(k).vector,
                              vec / np.linalg.norm(vec))


# ---------------------------------------------------------------------------
# validators and the DSPT reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
def test_correspondence_update_rejects_bad_weights(bad):
    target = np.zeros((4, 5, 2))
    with pytest.raises(DataError):
        CorrespondenceUpdate((0, 1), target, np.full((4, 5, 2), bad))
    weight = np.ones((4, 5, 2))
    weight[2, 3, 1] = bad
    with pytest.raises(DataError):
        CorrespondenceUpdate((0, 1), target, weight)


def test_correspondence_update_rejects_non_finite_target():
    target = np.zeros((4, 5, 2))
    target[1, 1, 0] = np.inf
    with pytest.raises(DataError):
        CorrespondenceUpdate((0, 1), target, np.ones((4, 5, 2)))


@pytest.mark.parametrize("vector", [np.full(8, np.nan), np.full(8, 0.5)])
def test_place_feature_rejects_nan_or_non_unit_vector(vector):
    with pytest.raises(DataError):
        PlaceFeature(vector, 0)


def test_precomputed_rejects_nan_flow_weights(tmp_path):
    flow = np.zeros((4, 5, 4))
    flow[..., 2:] = np.nan
    write_dspt(tmp_path / "flow_000000_000001.dspt", flow)
    with pytest.raises(DataError):
        PrecomputedProviders(tmp_path).provide_correspondences(0, 1)


def test_precomputed_rejects_all_zero_feature(tmp_path):
    write_dspt(tmp_path / "feat_000000.dspt", np.zeros((1, 1, 8)))
    with pytest.raises(DataError):
        PrecomputedProviders(tmp_path).provide_place_feature(0)


@pytest.mark.parametrize("prior", [np.ones((4, 5, 2)), np.full((4, 5), np.nan),
                                   np.full((4, 5), np.inf)])
def test_precomputed_rejects_multichannel_or_non_finite_prior(tmp_path, prior):
    write_dspt(tmp_path / "prior_000000.dspt", prior)
    with pytest.raises(DataError):
        PrecomputedProviders(tmp_path).provide_depth_prior(0)


@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0)])
def test_read_dspt_rejects_empty_dimension(tmp_path, shape):
    write_dspt(tmp_path / "empty.dspt", np.zeros(shape))
    with pytest.raises(DataError):
        read_dspt(tmp_path / "empty.dspt")


def test_read_dspt_casts_signalling_nan_to_nan(tmp_path):
    path = tmp_path / "prior_000000.dspt"
    path.write_bytes(DSPT_MAGIC + struct.pack("<IIII", DSPT_VERSION, 1, 2, 1)
                     + struct.pack("<I", 0x7F800001) + struct.pack("<f", 1.0))
    data = read_dspt(path)
    assert np.isnan(data[0, 0, 0]) and data[0, 1, 0] == 1.0
    with pytest.raises(DataError):
        PrecomputedProviders(tmp_path).provide_depth_prior(0)


@st.composite
def dspt_bytes(draw):
    """A DSPT header with small or huge dimensions, then a payload of the declared or any length."""
    dim = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))
    h, w, c = draw(dim), draw(dim), draw(dim)
    size = 4 * h * w * c
    exact = size <= 256 and draw(st.booleans())
    payload = draw(st.binary(min_size=size, max_size=size) if exact else st.binary(max_size=64))
    version = draw(st.sampled_from([DSPT_VERSION, DSPT_VERSION, 2]))
    return DSPT_MAGIC + struct.pack("<IIII", version, h, w, c) + payload


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(st.binary(max_size=64), dspt_bytes()))
def test_read_dspt_fuzz_returns_tensor_or_raises_data_error(tmp_path, raw):
    path = tmp_path / "fuzz.dspt"
    path.write_bytes(raw)
    try:
        data = read_dspt(path)
    except DataError:
        return
    assert data.ndim == 3 and 0 not in data.shape
    assert len(raw) == 20 + 4 * data.size
