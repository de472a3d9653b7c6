"""Provider outputs checked against scalar oracles on the synthetic scene, and
the validators and DSPT reader checked on malformed input."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsplat.errors import ConfigError, DataError
from flowsplat.geometry import Z_MIN
from flowsplat.geometry import SE3Pose
from flowsplat.providers import (CONE_MARGIN, DEPTH_CACHE_FRAMES, DSPT_MAGIC, DSPT_VERSION,
                                 OUTER_RADIUS, CorrespondenceUpdate, PlaceFeature,
                                 PrecomputedProviders, SceneSpec, SyntheticProviders,
                                 SyntheticScene, _look_at_c2w, dump_providers, read_dspt,
                                 write_dspt)

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


def test_fixture_frames_both_cull_and_keep_occluders(scene):
    # so the depth and weight oracle tests above and below run both the culled
    # and the kept occluder paths
    kept = [len(scene._occluders_in_view(k)) for k in FRAMES]
    assert min(kept) < scene.spec.occluders and max(kept) > 0


def grid_near_hits(scene, k, center, radius):
    """How many rays through a dense grid of frame k's image rectangle, borders and
    corners included, meet the sphere at a near root s > 1e-9."""
    intr = scene.intrinsics
    u = np.linspace(0.0, intr.width, 4 * intr.width + 1)
    v = np.linspace(0.0, intr.height, 4 * intr.height + 1)[:, None]
    c2w = scene.pose_c2w(k).matrix()
    cam = [(u - intr.cx) / intr.fx + 0 * v, (v - intr.cy) / intr.fy + 0 * u, 1.0 + 0 * (u + v)]
    d = [sum(c2w[r, m] * cam[m] for m in range(3)) for r in range(3)]
    oc = c2w[:3, 3] - np.asarray(center)
    a = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2]
    disc = b * b - a * (oc @ oc - radius * radius)
    near = (-b - np.sqrt(np.maximum(disc, 0.0))) / a
    return int(((disc > 0) & (near > 1e-9)).sum())


def cone_half_angle(scene):
    intr = scene.intrinsics
    return max(math.atan(math.hypot((u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy))
               for u in (0, intr.width) for v in (0, intr.height))


def sphere_at(scene, k, theta, phi, dist):
    """World point at distance dist from camera k, theta off its optical axis at azimuth phi."""
    c2w = scene.pose_c2w(k).matrix()
    local = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    return c2w[:3, 3] + dist * (c2w[:3, :3] @ local)


def place_occluders(scene, centers, radii):
    scene.sphere_centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    scene.sphere_radii = np.asarray(radii, dtype=float)
    scene.sphere_colors = np.full((len(scene.sphere_radii), 3), 0.5)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 50), trajectory=st.sampled_from(["orbit", "line", "rotate"]),
       frame=st.integers(0, 29), size=st.tuples(st.integers(8, 24), st.integers(8, 24)),
       focal=st.floats(4.0, 40.0),
       spheres=st.lists(st.tuples(st.floats(-0.05, 0.05), st.floats(0, 2 * math.pi),
                                  st.floats(0.05, 5.0), st.floats(0.01, 2.0)), max_size=6))
def test_culled_occluders_are_never_hit_in_the_image_rectangle(seed, trajectory, frame, size,
                                                               focal, spheres):
    # the scene's own occluders plus spheres whose angular disc ends within
    # 0.05 rad of the view cone, at any azimuth (corners included); a sphere
    # with radius above its distance contains the camera
    h, w = size
    scene = SyntheticScene(SceneSpec(trajectory=trajectory, frames=30, height=h, width=w,
                                     seed=seed, focal=focal))
    half = cone_half_angle(scene)
    centers, radii = list(scene.sphere_centers), list(scene.sphere_radii)
    for delta, phi, dist, radius in spheres:
        theta = half + math.asin(min(radius / dist, 1.0)) + delta
        centers.append(sphere_at(scene, frame, theta, phi, dist))
        radii.append(radius)
    place_occluders(scene, centers, radii)
    kept = scene._occluders_in_view(frame)
    assert kept == sorted(set(kept))
    for i, (c, r) in enumerate(zip(centers, radii)):
        if i not in kept:
            assert grid_near_hits(scene, frame, c, r) == 0, (i, c, r)


def test_cull_at_the_cone_boundary_and_around_the_camera():
    scene = SyntheticScene(SceneSpec(frames=8, height=H, width=W, seed=0))
    k, dist, radius = 2, 3.0, 0.5
    half = cone_half_angle(scene)
    corner = math.atan2(H, W)  # azimuth of the image corner (W, H), where the cone touches
    edge = half + math.asin(radius / dist)
    center = scene.camera_center(k)
    cases = [  # (sphere center, radius, kept, hit by a grid ray)
        (sphere_at(scene, k, edge + 2 * CONE_MARGIN, corner, dist), radius, False, False),
        (sphere_at(scene, k, edge + 0.5 * CONE_MARGIN, corner, dist), radius, True, False),
        (sphere_at(scene, k, edge - 1e-3, corner, dist), radius, True, True),
        (sphere_at(scene, k, edge - 1e-3, corner + 0.3, dist), radius, True, False),
        (sphere_at(scene, k, math.pi, 0.0, dist), radius, False, False),  # behind
        (center, radius, True, False),  # camera at the center: no near root ahead
        (sphere_at(scene, k, math.pi, 0.0, radius * (1 - 1e-12)), radius, True, False),
        (sphere_at(scene, k, 0.0, 0.0, radius), radius, True, False),  # touching, ahead
    ]
    place_occluders(scene, [c for c, *_ in cases], [r for _, r, *_ in cases])
    kept = scene._occluders_in_view(k)
    for i, (c, r, keep, hit) in enumerate(cases):
        assert (i in kept) == keep, i
        assert (grid_near_hits(scene, k, c, r) > 0) == hit, i


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


def test_cached_depth_is_read_only():
    scene = SyntheticScene(SceneSpec(frames=24, height=H, width=W, seed=0,
                                     prior_scale_range=(0.5, 2.0)))
    providers = SyntheticProviders(scene)
    depth, prior = scene.depth(3).copy(), providers.provide_depth_prior(3)
    d = scene.depth(3)
    with pytest.raises(ValueError):
        d *= 2
    with pytest.raises(ValueError):
        d[0, 0] = 1.0
    assert np.array_equal(scene.depth(3), depth)
    assert np.array_equal(providers.provide_depth_prior(3), prior)


def look_at_with_np_cross(center, forward):
    f = forward / np.linalg.norm(forward)
    r = np.cross(f, np.array([0.0, 0, 1.0]))
    if np.linalg.norm(r) < 1e-8:
        r = np.cross(f, np.array([0.0, 1.0, 0]))
    r = r / np.linalg.norm(r)
    T = np.eye(4)
    T[:3, :3] = np.stack([r, np.cross(f, r), f], axis=1)
    T[:3, 3] = center
    return SE3Pose.from_matrix(T)


def test_look_at_equals_np_cross_construction_bit_for_bit():
    rng = np.random.default_rng(5)
    forwards = list(rng.normal(size=(300, 3)) * rng.uniform(1e-3, 1e3, size=(300, 1)))
    # vertical and nearly vertical forwards take the fallback up vector
    forwards += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -2.5]),
                 np.array([1e-10, -1e-10, 1.0]), np.array([-0.0, 0.0, -1e-3])]
    fallback = 0
    for fwd in forwards:
        center = rng.normal(size=3)
        got, want = _look_at_c2w(center, fwd), look_at_with_np_cross(center, fwd)
        assert np.array_equal(got.quat, want.quat), fwd
        assert np.array_equal(got.trans, want.trans), fwd
        fallback += np.linalg.norm(np.cross(fwd / np.linalg.norm(fwd), [0, 0, 1.0])) < 1e-8
    assert fallback == 4


def test_image_equals_color_of_the_unculled_cast(scene):
    on_occluder = 0
    for k in FRAMES:
        origin, dirs = scene._camera_rays(k)
        s, obj = scene._cast(origin, dirs)
        pts = np.stack([origin[r] + s * dirs[r] for r in range(3)], axis=-1)
        image = scene.image(k)
        assert image.shape == (H, W, 3)
        assert np.array_equal(image, scene._surface_color(pts, obj))
        assert image.min() >= 0.02 and image.max() <= 0.98
        on_occluder += int((obj >= 0).sum())
    assert on_occluder > 0


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

@pytest.mark.parametrize("field, value", [
    ("pixel_noise", -0.5), ("pixel_noise", math.nan), ("pixel_noise", math.inf),
    ("prior_noise", -0.05), ("prior_noise", math.nan), ("feature_noise", -1.0),
    ("feature_noise", math.inf), ("occluders", -1), ("fps", 0.0), ("fps", -30.0),
    ("fps", math.nan), ("focal", 0.0), ("focal", -40.0), ("focal", math.nan),
    ("focal", math.inf), ("prior_scale_range", (2.0, 0.5)), ("prior_scale_range", (0.0, 1.0)),
    ("prior_scale_range", (-1.0, -0.5)), ("prior_scale_range", (1.0, math.nan)),
    ("prior_offset_range", (0.1, -0.1)), ("prior_offset_range", (-math.inf, 0.0)),
], ids=str)
def test_scene_spec_rejects_invalid_values(field, value):
    with pytest.raises(ConfigError, match=field):
        SceneSpec(**{field: value})


def test_scene_spec_accepts_boundary_values():
    spec = SceneSpec(pixel_noise=0.0, prior_noise=0.0, feature_noise=0.0, occluders=0,
                     focal=1e-3, prior_scale_range=(1e-3, 1e-3), prior_offset_range=(0.1, 0.1))
    SyntheticScene(spec)


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
