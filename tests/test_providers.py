"""Provider outputs checked against scalar oracles on the synthetic scene, and
the validators and DSPT reader checked on malformed input."""

import inspect
import math
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsplat.errors import ConfigError, DataError
from flowsplat.geometry import Z_MIN
from flowsplat.providers import (CONE_MARGIN, DEPTH_CACHE_FRAMES, DSPT_MAGIC, DSPT_VERSION,
                                 OUTER_RADIUS, CorrespondenceUpdate, PlaceFeature,
                                 PrecomputedProviders, Providers, SceneSpec, SyntheticProviders,
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
    s, obj = scene._cast(origin, (d[:, 0], d[:, 1], d[:, 2]), range(len(scene.sphere_radii)))
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
    center = scene.pose_c2w(k).trans
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


def look_at_with_np_cross(forward):
    """One camera's look-at rotation from one forward 3-vector.

    Norms are taken along an axis, as in the batched construction: the 1-D
    norm without one goes through a BLAS dot, which rounds differently.
    """
    f = forward / np.linalg.norm(forward, axis=-1)
    r = np.cross(f, np.array([0.0, 0, 1.0]))
    if np.linalg.norm(r, axis=-1) < 1e-8:
        r = np.cross(f, np.array([0.0, 1.0, 0]))
    r = r / np.linalg.norm(r, axis=-1)
    return np.stack([r, np.cross(f, r), f], axis=1)


def test_look_at_equals_np_cross_construction_bit_for_bit():
    rng = np.random.default_rng(5)
    forwards = rng.normal(size=(300, 3)) * rng.uniform(1e-3, 1e3, size=(300, 1))
    # vertical and nearly vertical forwards take the fallback up vector
    forwards = np.concatenate([forwards, [[0.0, 0.0, 1.0], [0.0, 0.0, -2.5],
                                          [1e-10, -1e-10, 1.0], [-0.0, 0.0, -1e-3]]])
    rotations = _look_at_c2w(forwards)
    assert rotations.shape == (len(forwards), 3, 3)
    fallback = 0
    for fwd, got in zip(forwards, rotations):
        assert np.array_equal(got, look_at_with_np_cross(fwd)), fwd
        fallback += np.linalg.norm(np.cross(fwd / np.linalg.norm(fwd), [0, 0, 1.0])) < 1e-8
    assert fallback == 4


def test_image_equals_color_of_the_unculled_cast(scene):
    on_occluder = 0
    for k in FRAMES:
        origin, dirs = scene._camera_rays(k)
        s, obj = scene._cast(origin, dirs, range(len(scene.sphere_radii)))
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
    ("prior_noise", -0.05), ("prior_noise", math.nan), ("occluders", -1), ("occluders", 2.5),
    ("occluders", True), ("height", 48.0), ("width", 64.5), ("focal", 0.0), ("focal", -40.0),
    ("focal", math.nan), ("focal", math.inf), ("prior_scale_range", (2.0, 0.5)),
    ("prior_scale_range", (0.0, 1.0)), ("prior_scale_range", (-1.0, -0.5)),
    ("prior_scale_range", (1.0, math.nan)),
    ("prior_offset_range", (0.1, -0.1)), ("prior_offset_range", (-math.inf, 0.0)),
    ("seed", -1), ("frames", 2.5), ("frames", 1), ("height", 7), ("width", 7),
], ids=str)
def test_scene_spec_rejects_invalid_values(field, value):
    with pytest.raises(ConfigError, match=field):
        SceneSpec(**{field: value})


def test_scene_spec_accepts_boundary_values():
    spec = SceneSpec(pixel_noise=0.0, prior_noise=0.0, occluders=0,
                     focal=1e-3, prior_scale_range=(1e-3, 1e-3), prior_offset_range=(0.1, 0.1))
    SyntheticScene(spec)


def public_methods(cls):
    """{name: parameter names} of the public functions defined on cls or its bases."""
    return {name: list(inspect.signature(fn).parameters)
            for name, fn in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")}


@pytest.mark.parametrize("cls", [SyntheticProviders, PrecomputedProviders],
                         ids=lambda cls: cls.__name__)
def test_providers_have_exactly_the_protocol_methods(cls):
    assert len(public_methods(Providers)) == 3
    assert public_methods(cls) == public_methods(Providers)


@pytest.mark.parametrize("call, args", [
    ("provide_correspondences", (1.5, 2)), ("provide_correspondences", (True, 2)),
    ("provide_correspondences", (2, np.float64(3.0))), ("provide_correspondences", (2, 12)),
    ("provide_correspondences", (-1, 2)), ("provide_correspondences", (2, -1)),
    ("provide_depth_prior", (2.0,)), ("provide_depth_prior", (-1,)),
    ("provide_place_feature", (False,)), ("provide_place_feature", (-1,)),
], ids=str)
def test_synthetic_providers_reject_a_non_integral_bool_or_outside_frame(call, args):
    # with pixel noise on, a frame index that reached the noise stream's SeedSequence
    # would raise a bare ValueError there instead
    providers = SyntheticProviders(SyntheticScene(SceneSpec(frames=12, height=8, width=8,
                                                            pixel_noise=0.5)))
    with pytest.raises(DataError, match="not in scene"):
        getattr(providers, call)(*args)


@pytest.mark.parametrize("call, args", [
    ("depth", (-1,)), ("depth", (100,)), ("depth", (True,)), ("depth", (np.float64(2.0),)),
    ("disparity", (-1,)), ("image", (100,)), ("image", (-1,)), ("world_points", (1.5,)),
    ("world_points", (-1,)), ("visible_from", (2, -1)), ("visible_from", (-1, 2)),
    ("visible_from", (2, True)), ("pose_c2w", (True,)), ("pose_c2w", (-1,)),
    ("pose_c2w", (100,)), ("relative_pose", (-1, 2)), ("relative_pose", (2, 100)),
    ("relative_pose", (2, False)), ("prior_affine", (np.bool_(True),)),
], ids=str)
def test_scene_methods_reject_a_non_integral_bool_or_outside_frame(call, args):
    scene = SyntheticScene(SceneSpec(frames=100, height=8, width=8))
    with pytest.raises(DataError, match="not in scene"):
        getattr(scene, call)(*args)
    assert not scene._depth_cache


def test_scene_methods_take_numpy_integer_frames():
    scene = SyntheticScene(SceneSpec(frames=100, height=8, width=8))
    assert np.array_equal(scene.depth(np.int64(99)), scene.depth(99))
    assert np.array_equal(scene.pose_c2w(np.int32(5)).matrix(), scene.pose_c2w(5).matrix())
    for got, want in zip(scene.relative_pose(np.int64(3), np.uint8(7)), scene.relative_pose(3, 7)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("call, args", [
    ("provide_correspondences", (1.0, 2)), ("provide_correspondences", (0, True)),
    ("provide_correspondences", (-1, 2)), ("provide_depth_prior", (1.0,)),
    ("provide_depth_prior", (True,)), ("provide_depth_prior", (-1,)),
    ("provide_place_feature", (np.float64(1.0),)), ("provide_place_feature", (np.True_,)),
], ids=str)
def test_precomputed_rejects_a_non_integral_bool_or_negative_frame(tmp_path, call, args):
    # the files that True would name exist, so only the index check can refuse the call
    scene = SyntheticScene(SceneSpec(frames=4, height=8, width=8))
    dump_providers(SyntheticProviders(scene), tmp_path, [0, 1], [(0, 1)])
    precomputed = PrecomputedProviders(tmp_path)
    with pytest.raises(DataError, match="must be integers >= 0"):
        getattr(precomputed, call)(*args)
    assert np.array_equal(precomputed.provide_depth_prior(np.int64(1)),
                          precomputed.provide_depth_prior(1))


def test_noisy_prior_is_the_affine_disparity_times_the_frames_seeded_lognormal():
    sigma = 0.3
    spec = SceneSpec(frames=12, height=H, width=W, seed=5, prior_scale_range=(0.5, 2.0),
                     prior_offset_range=(-0.1, 0.1), prior_noise=sigma)
    scene = SyntheticScene(spec)
    providers = SyntheticProviders(scene)
    noise = {}
    for k in (3, 7):
        a, b = scene.prior_affine(k)
        affine = a * scene.disparity(k) + b
        n = np.random.default_rng(np.random.SeedSequence([spec.seed, 63, k])).normal(size=(H, W))
        prior = providers.provide_depth_prior(k)
        assert prior.tobytes() == np.maximum(affine * np.exp(sigma * n), 1e-6).tobytes()
        # fixed per (seed, k): again, and from a fresh scene with the same spec
        assert providers.provide_depth_prior(k).tobytes() == prior.tobytes()
        fresh = SyntheticProviders(SyntheticScene(spec)).provide_depth_prior(k)
        assert fresh.tobytes() == prior.tobytes()
        unfloored = prior > PRIOR_FLOOR
        assert unfloored.mean() > 0.5
        noise[k] = np.where(unfloored, np.log(prior / np.where(unfloored, affine, 1.0)), 0.0)
        assert np.allclose(noise[k], np.where(unfloored, sigma * n, 0.0), atol=1e-12)
    assert not np.allclose(noise[3], noise[7])


def test_prior_affine_is_drawn_from_the_frames_own_stream():
    spec = SceneSpec(frames=100, height=8, width=8, seed=4, prior_scale_range=(0.5, 2.0),
                     prior_offset_range=(-0.3, 0.2))
    scene = SyntheticScene(spec)
    for k in (99, 0, 50):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1000 + k]))
        assert scene.prior_affine(k) == (float(rng.uniform(0.5, 2.0)),
                                         float(rng.uniform(-0.3, 0.2)))
    for k in (-1, 100):
        with pytest.raises(DataError):
            scene.prior_affine(k)


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


SNAN32 = 0x7F800001  # a float32 signalling NaN


def write_raw_dspt(path, bits):
    """A DSPT file holding the float32 bit patterns `bits`, an (H, W, C) integer array."""
    bits = np.asarray(bits, dtype="<u4")
    path.write_bytes(DSPT_MAGIC + struct.pack("<IIII", DSPT_VERSION, *bits.shape) + bits.tobytes())


def assert_data_error_without_warning(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError):
            call(*args)


def test_precomputed_rejects_nan_flow_weights(tmp_path):
    flow = np.zeros((4, 5, 4))
    flow[..., 2:] = np.nan
    write_dspt(tmp_path / "flow_000000_000001.dspt", flow)
    precomputed = PrecomputedProviders(tmp_path)
    with pytest.raises(DataError):
        precomputed.provide_correspondences(0, 1)
    for j, channel in ((2, 0), (3, 3)):  # a signalling NaN in a target, then in a weight
        bits = np.zeros((4, 5, 4), dtype="<u4")
        bits[1, 2, channel] = SNAN32
        write_raw_dspt(tmp_path / f"flow_000000_{j:06d}.dspt", bits)
        assert_data_error_without_warning(precomputed.provide_correspondences, 0, j)


def test_precomputed_rejects_all_zero_feature(tmp_path):
    write_dspt(tmp_path / "feat_000000.dspt", np.zeros((1, 1, 8)))
    with pytest.raises(DataError):
        PrecomputedProviders(tmp_path).provide_place_feature(0)
    write_raw_dspt(tmp_path / "feat_000001.dspt", [[[0x3F800000, SNAN32, 0]]])
    assert_data_error_without_warning(PrecomputedProviders(tmp_path).provide_place_feature, 1)


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


def test_read_dspt_returns_signalling_nan_bits_as_stored(tmp_path):
    write_raw_dspt(tmp_path / "prior_000000.dspt", [[[SNAN32], [0x3F800000]]])
    data = read_dspt(tmp_path / "prior_000000.dspt")
    assert data.dtype == np.float32 and data.shape == (1, 2, 1)
    assert data.view("<u4").ravel().tolist() == [SNAN32, 0x3F800000]
    assert_data_error_without_warning(PrecomputedProviders(tmp_path).provide_depth_prior, 0)


@pytest.mark.parametrize("dims", [(2**32 - 1, 1, 1), (2**32 - 1,) * 3])
def test_read_dspt_checks_the_file_size_before_allocating(tmp_path, dims):
    path = tmp_path / "huge.dspt"
    path.write_bytes(DSPT_MAGIC + struct.pack("<IIII", DSPT_VERSION, *dims) + bytes(64))
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        with pytest.raises(DataError, match="truncated"):
            read_dspt(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_read_dspt_raises_data_error_on_an_unreadable_path(tmp_path):
    (tmp_path / "prior_000000.dspt").mkdir()
    for path in (tmp_path / "missing.dspt", tmp_path / "prior_000000.dspt"):
        with pytest.raises(DataError, match="cannot read"):
            read_dspt(path)
    precomputed = PrecomputedProviders(tmp_path)
    with pytest.raises(DataError, match="cannot read"):
        precomputed.provide_correspondences(0, 1)  # no such file
    with pytest.raises(DataError, match="cannot read"):
        precomputed.provide_depth_prior(0)  # a directory


def test_write_dspt_raises_data_error_on_an_unwritable_path(tmp_path):
    (tmp_path / "prior_000003.dspt").mkdir()
    (tmp_path / "file").write_bytes(b"")
    for path in (tmp_path / "prior_000003.dspt", tmp_path / "missing" / "x.dspt"):
        with pytest.raises(DataError, match="cannot write"):
            write_dspt(path, np.ones((2, 3)))
    synthetic = SyntheticProviders(SyntheticScene(SceneSpec(frames=12, height=8, width=8)))
    with pytest.raises(DataError, match="cannot write"):
        dump_providers(synthetic, tmp_path, [3], [])  # the prior's file name is a directory
    with pytest.raises(DataError, match="cannot create"):
        dump_providers(synthetic, tmp_path / "file" / "sub", [3], [])


@pytest.mark.parametrize("array", [np.array([["a", "b"]]), np.ones((2, 3), dtype=complex),
                                   np.array([[None, 1.0]]),
                                   np.zeros((2, 3), dtype="datetime64[s]")],
                         ids=["str", "complex", "object", "datetime"])
def test_write_dspt_rejects_a_non_real_dtype(tmp_path, array):
    with pytest.raises(DataError, match="real numbers"):
        write_dspt(tmp_path / "x.dspt", array)
    assert not (tmp_path / "x.dspt").exists()


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


# ---------------------------------------------------------------------------
# the DSPT writer and reader against a float64-staging reference
# ---------------------------------------------------------------------------
# The reference concatenates, casts and widens whole tensors through float64.
# Files and outputs must equal it bit for bit, compared as integer views, so
# that NaN payloads and the sign of zero count.

def reference_dspt_bytes(array):
    array = np.asarray(array, dtype=np.float32)
    if array.ndim == 2:
        array = array[..., None]
    header = DSPT_MAGIC + struct.pack("<IIII", DSPT_VERSION, *array.shape)
    return header + array.astype("<f4").tobytes()


class ReferencePrecomputed:
    """PrecomputedProviders' outputs from each tensor widened to float64 as a whole."""

    def __init__(self, directory):
        self.directory = directory

    def _load(self, name):
        with np.errstate(invalid="ignore"):
            return read_dspt(self.directory / name).astype(np.float64)

    def provide_correspondences(self, i, j, snapshot=None):
        data = self._load(f"flow_{i:06d}_{j:06d}.dspt")
        return CorrespondenceUpdate((i, j), data[..., :2].copy(), np.clip(data[..., 2:4], 0.0, 1.0))

    def provide_depth_prior(self, k):
        data = self._load(f"prior_{k:06d}.dspt")
        if not np.all(np.isfinite(data)):
            raise DataError("non-finite prior")
        return np.maximum(data[..., 0], 1e-6)

    def provide_place_feature(self, k):
        vec = self._load(f"feat_{k:06d}.dspt").reshape(-1)
        n = np.linalg.norm(vec)
        if not 0.0 < n < np.inf:
            raise DataError("zero or non-finite feature")
        return PlaceFeature(vec / n, k)


def arrays_or_error(call, *args):
    """The arrays one provider call returns, or the DataError it raises without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args)
        except DataError as exc:
            return exc
    if isinstance(out, CorrespondenceUpdate):
        return out.target, out.weight
    return (out.vector,) if isinstance(out, PlaceFeature) else (out,)


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    unsigned = f"<u{want.itemsize}"
    assert np.array_equal(got.view(unsigned), want.view(unsigned))


def f64_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


F32 = np.finfo(np.float32)
SPECIAL64 = [0.0, -0.0, float(F32.smallest_subnormal), -float(F32.smallest_subnormal), 5e-324,
             -5e-324, 1e-40, math.nan, -math.nan, f64_bits(0x7FF8_0000_DEAD_BEEF),
             f64_bits(0x7FF0_0000_0000_0001), math.inf, -math.inf, float(F32.max),
             -float(F32.max), 1e39, 0.5, 1.0, 2.0]
SPECIAL32 = [0, 0x8000_0000, 1, 0x8000_0001, 0x007F_FFFF, 0x7F7F_FFFF, 0xFF7F_FFFF, 0x7F80_0000,
             0xFF80_0000, 0x7FC0_0000, 0xFFC0_0001, SNAN32, 0x3F80_0000, 0x3F00_0000, 0xBF80_0000]


@st.composite
def tensor(draw, elements, dtype, channels):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    values = draw(st.lists(elements, min_size=h * w * channels, max_size=h * w * channels))
    return np.array(values, dtype=dtype).reshape(h, w, channels)


class FixedProviders:
    """The given arrays as every frame's and edge's outputs, without validation."""

    def __init__(self, target, weight, prior, feature):
        self.target, self.weight, self.prior, self.feature = target, weight, prior, feature

    def provide_correspondences(self, i, j, snapshot=None):
        return SimpleNamespace(target=self.target, weight=self.weight)

    def provide_depth_prior(self, k):
        return self.prior

    def provide_place_feature(self, k):
        return SimpleNamespace(vector=self.feature)


@pytest.mark.parametrize("target, weight", [((2, 3, 3), (2, 3, 3)), ((2, 3, 2), (2, 4, 2)),
                                            ((2, 3), (2, 3))], ids=str)
def test_dump_providers_rejects_a_flow_that_is_not_two_h_w_2_arrays(tmp_path, target, weight):
    fixed = FixedProviders(np.zeros(target), np.zeros(weight), None, None)
    with pytest.raises(DataError, match="must both be"):
        dump_providers(fixed, tmp_path, [], [(0, 1)])


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flow=tensor(st.one_of(st.sampled_from(SPECIAL64), st.floats(), st.floats(width=32)),
                   np.float64, 4),
       dtype=st.sampled_from([np.float64, np.float32]), order=st.sampled_from("CF"))
def test_dump_providers_writes_the_reference_bytes(tmp_path, flow, dtype, order):
    with np.errstate(over="ignore", invalid="ignore"):  # 1e39 overflows, signalling NaNs flag
        target, weight = (np.asarray(flow[..., c:c + 2], dtype=dtype, order=order) for c in (0, 2))
        prior, feature = np.asarray(flow[..., 0], dtype=dtype, order=order), flow[0, 0]
        dump_providers(FixedProviders(target, weight, prior, feature), tmp_path, [0], [(0, 1)])
        flow = np.concatenate([target, weight], axis=-1)
        want = {"flow_000000_000001.dspt": reference_dspt_bytes(flow),
                "prior_000000.dspt": reference_dspt_bytes(prior),
                "feat_000000.dspt": reference_dspt_bytes(feature.reshape(1, 1, -1))}
    for name, raw in want.items():
        assert (tmp_path / name).read_bytes() == raw, name


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=tensor(st.one_of(st.sampled_from(SPECIAL32), st.integers(0, 2**32 - 1)), "<u4", 4))
def test_precomputed_outputs_equal_the_reference_widening(tmp_path, bits):
    write_raw_dspt(tmp_path / "flow_000000_000001.dspt", bits)
    write_raw_dspt(tmp_path / "prior_000000.dspt", bits[..., :1])
    write_raw_dspt(tmp_path / "feat_000000.dspt", bits.reshape(1, 1, -1))
    same_bits(read_dspt(tmp_path / "flow_000000_000001.dspt"), bits.view("<f4"))
    got, want = PrecomputedProviders(tmp_path), ReferencePrecomputed(tmp_path)
    for call, args in (("provide_correspondences", (0, 1)), ("provide_depth_prior", (0,)),
                       ("provide_place_feature", (0,))):
        expect = arrays_or_error(getattr(want, call), *args)
        result = arrays_or_error(getattr(got, call), *args)
        assert isinstance(result, DataError) == isinstance(expect, DataError), call
        if not isinstance(expect, DataError):
            for array, reference in zip(result, expect, strict=True):
                assert array.flags.c_contiguous, call
                same_bits(array, reference)
