"""Pixel noise on correspondence targets, drawn on the calling thread.

These tests check the noise values bit for bit on a small and a large edge, and
that no provider starts a thread at either size, also when the geometry raises.
"""

import threading

import numpy as np
import pytest

from flowsplat import providers
from flowsplat.geometry import reproject
from flowsplat.providers import SceneSpec, SyntheticProviders, SyntheticScene

SIGMA = 0.5
SMALL = (24, 32)  # 1536 noise values per edge
LARGE = (128, 160)  # 40960 values
EDGES = [(3, 4), (4, 2), (5, 8), (6, 3)]


def make_scene(shape, seed=0, trajectory="orbit", sigma=SIGMA):
    h, w = shape
    return SyntheticScene(SceneSpec(trajectory=trajectory, frames=12, height=h, width=w,
                                    seed=seed, pixel_noise=sigma))


def noise_free_target(scene, i, j):
    return reproject(scene.depth(i), *scene.relative_pose(i, j), scene.intrinsics)[0]


def expected_target(scene, i, j):
    """reproject's target plus sigma times the edge's seeded normal draw."""
    target = noise_free_target(scene, i, j)
    rng = np.random.default_rng(np.random.SeedSequence([scene.spec.seed, 31, i, j]))
    return target + scene.spec.pixel_noise * rng.standard_normal(target.shape)


@pytest.mark.parametrize("trajectory", ["orbit", "line"])
@pytest.mark.parametrize("shape", [SMALL, LARGE], ids=["small", "large"])
def test_noisy_target_is_reprojection_plus_seeded_noise_bit_for_bit(shape, trajectory):
    scene = make_scene(shape, trajectory=trajectory)
    prov = SyntheticProviders(scene)
    for i, j in EDGES:
        target = prov.provide_correspondences(i, j).target
        assert target.tobytes() == expected_target(scene, i, j).tobytes()


@pytest.mark.parametrize("shape", [SMALL, LARGE], ids=["small", "large"])
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


def test_noise_free_scene_adds_no_noise():
    scene = make_scene(LARGE, sigma=0.0)
    target = SyntheticProviders(scene).provide_correspondences(3, 4).target
    assert target.tobytes() == noise_free_target(scene, 3, 4).tobytes()


@pytest.mark.parametrize("shape", [SMALL, LARGE], ids=["small", "large"])
def test_no_thread_starts_even_when_the_geometry_raises(shape, monkeypatch):
    # compared as sets: a thread that some earlier test left may end meanwhile
    before = set(threading.enumerate())
    prov = SyntheticProviders(make_scene(shape))
    for i, j in EDGES:
        prov.provide_correspondences(i, j)

    def failing_reproject(*args, **kwargs):
        raise RuntimeError("reproject failed")

    monkeypatch.setattr(providers, "reproject", failing_reproject)
    with pytest.raises(RuntimeError, match="reproject failed"):
        prov.provide_correspondences(*EDGES[0])
    assert not set(threading.enumerate()) - before
