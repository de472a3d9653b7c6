"""Pixel noise on correspondence targets, drawn inline or on the provider's worker thread.

Edges with at least NOISE_THREAD_MIN noise values have their draw run on one
worker thread per provider while the calling thread does the geometry. These
tests check the noise values bit for bit on both paths, and the worker's
lifetime: none at construction, one per provider, ended by dropping the
provider, which has no other lifecycle.
"""

import gc
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from flowsplat import providers
from flowsplat.geometry import reproject
from flowsplat.providers import NOISE_THREAD_MIN, SceneSpec, SyntheticProviders, SyntheticScene

SIGMA = 0.5
INLINE = (24, 32)  # 1536 noise values per edge: drawn on the calling thread
OFFLOADED = (128, 160)  # 40960 values: drawn on the worker
EDGES = [(3, 4), (4, 2), (5, 8), (6, 3)]
JOIN_S = 10.0  # every wait for a thread gives up after this long
STRESS_S = 2.0


def make_scene(shape, seed=0, trajectory="orbit", sigma=SIGMA):
    h, w = shape
    return SyntheticScene(SceneSpec(trajectory=trajectory, frames=12, height=h, width=w,
                                    seed=seed, pixel_noise=sigma))


def new_threads(before):
    return set(threading.enumerate()) - before


def noise_free_target(scene, i, j):
    return reproject(scene.depth(i), *scene.relative_pose(i, j), scene.intrinsics)[0]


def expected_target(scene, i, j):
    """reproject's target plus sigma times the edge's seeded normal draw."""
    target = noise_free_target(scene, i, j)
    rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 31, i, j]))
    return target + scene.spec.pixel_noise * rng.standard_normal(target.shape)


def test_shapes_lie_on_both_sides_of_the_threshold():
    assert INLINE[0] * INLINE[1] * 2 < NOISE_THREAD_MIN <= OFFLOADED[0] * OFFLOADED[1] * 2


@pytest.mark.parametrize("trajectory", ["orbit", "line"])
@pytest.mark.parametrize("shape", [INLINE, OFFLOADED], ids=["inline", "offloaded"])
def test_noisy_target_is_reprojection_plus_seeded_noise_bit_for_bit(shape, trajectory):
    scene = make_scene(shape, trajectory=trajectory)
    prov = SyntheticProviders(scene)
    for i, j in EDGES:
        target = prov.provide_correspondences(i, j).target
        assert target.tobytes() == expected_target(scene, i, j).tobytes()


@pytest.mark.parametrize("shape", [INLINE, OFFLOADED], ids=["inline", "offloaded"])
def test_noise_is_fixed_per_edge_and_seed_and_differs_across_them(shape):
    def noise(scene, prov, i, j):
        return (prov.provide_correspondences(i, j).target - noise_free_target(scene, i, j)).ravel()

    scene, other_seed = make_scene(shape, seed=0), make_scene(shape, seed=1)
    prov, other = SyntheticProviders(scene), SyntheticProviders(other_seed)
    first = prov.provide_correspondences(3, 4)
    again = prov.provide_correspondences(3, 4)
    assert first.target.tobytes() == again.target.tobytes()
    assert first.weight.tobytes() == again.weight.tobytes()
    n34 = noise(scene, prov, 3, 4)
    assert abs(n34.std() / SIGMA - 1.0) < 0.1
    for i, j in [(4, 3), (3, 5), (5, 4)]:
        assert not np.allclose(noise(scene, prov, i, j)[:100], n34[:100])
    assert not np.allclose(noise(other_seed, other, 3, 4)[:100], n34[:100])


def test_noise_free_scene_has_no_noise_and_no_worker():
    before = set(threading.enumerate())
    scene = make_scene(OFFLOADED, sigma=0.0)
    target = SyntheticProviders(scene).provide_correspondences(3, 4).target
    assert not new_threads(before)
    assert target.tobytes() == noise_free_target(scene, 3, 4).tobytes()


def test_construction_and_inline_edges_start_no_thread():
    # compared as sets: a worker of an earlier test's dropped provider may end meanwhile
    before = set(threading.enumerate())
    offloaded = SyntheticProviders(make_scene(OFFLOADED))
    inline = SyntheticProviders(make_scene(INLINE))
    for i, j in EDGES:
        inline.provide_correspondences(i, j)
    assert not new_threads(before)
    assert offloaded._noise_pool is None


def test_offloaded_edges_start_one_worker_and_reuse_it():
    before = set(threading.enumerate())
    prov = SyntheticProviders(make_scene(OFFLOADED))
    prov.provide_correspondences(*EDGES[0])
    started = new_threads(before)
    assert len(started) == 1
    for i, j in EDGES[1:]:
        prov.provide_correspondences(i, j)
    assert new_threads(before) == started


def test_dropping_the_provider_ends_the_worker():
    before = set(threading.enumerate())
    prov = SyntheticProviders(make_scene(OFFLOADED))
    prov.provide_correspondences(*EDGES[0])
    (worker,) = new_threads(before)
    del prov
    gc.collect()
    worker.join(JOIN_S)
    assert not worker.is_alive()


def test_draw_is_awaited_when_the_geometry_raises(monkeypatch):
    submitted = []
    submit = ThreadPoolExecutor.submit

    def recording_submit(self, fn, *args, **kwargs):
        def slow_fn(*args, **kwargs):
            time.sleep(0.2)  # far longer than the failing geometry takes to raise
            return fn(*args, **kwargs)

        submitted.append(submit(self, slow_fn, *args, **kwargs))
        return submitted[-1]

    def failing_reproject(*args, **kwargs):
        raise RuntimeError("reproject failed")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
    monkeypatch.setattr(providers, "reproject", failing_reproject)
    scene = make_scene(OFFLOADED)
    prov = SyntheticProviders(scene)
    with pytest.raises(RuntimeError, match="reproject failed"):
        prov.provide_correspondences(*EDGES[0])
    assert len(submitted) == 1 and submitted[0].done()
    monkeypatch.setattr(providers, "reproject", reproject)
    target = prov.provide_correspondences(*EDGES[0]).target
    assert target.tobytes() == expected_target(scene, *EDGES[0]).tobytes()


def test_offloaded_draws_equal_inline_ones_under_fast_thread_switching(monkeypatch):
    scene = make_scene(OFFLOADED)
    edges = [(i, j) for i in range(12) for j in range(12) if 0 < abs(i - j) <= 2]
    with monkeypatch.context() as patch:
        patch.setattr(providers, "NOISE_THREAD_MIN", math.inf)
        inline = SyntheticProviders(scene)
        reference = {e: inline.provide_correspondences(*e) for e in edges}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        prov = SyntheticProviders(scene)
        served = 0
        deadline = time.monotonic() + STRESS_S
        while served < len(edges) or time.monotonic() < deadline:
            e = edges[served % len(edges)]
            upd = prov.provide_correspondences(*e)
            assert upd.target.tobytes() == reference[e].target.tobytes(), e
            assert upd.weight.tobytes() == reference[e].weight.tobytes(), e
            served += 1
    finally:
        sys.setswitchinterval(interval)
    assert served >= len(edges)
