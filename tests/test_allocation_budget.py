"""Allocation budgets of one 240x320 edge, measured with tracemalloc.

A plane is one (H, W) float64 array. `reproject` returns 2 planes of
correspondences and a boolean mask; it builds Z first and then X and Y one at a
time, each projected in place, so it peaks near 4.4 planes where building X, Y
and Z and projecting them out of place peaks at 8.4. `provide_correspondences`
adds a 2-plane weight array and a 2-plane noise draw, near 6.4 planes against
10.4. The budgets fail if the temporaries come back; numpy reports its array
buffers to tracemalloc, so the figures do not depend on timing.
"""

import tracemalloc

import pytest

from flowsplat.geometry import reproject
from flowsplat.providers import SceneSpec, SyntheticProviders, SyntheticScene

H, W = 240, 320
PLANE = H * W * 8


def peak_planes(call):
    """Peak of the memory that call() allocates above what is live before it, in planes.

    call runs once untraced first, so caches that it fills are not counted.
    """
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / PLANE
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def scene():
    return SyntheticScene(SceneSpec(height=H, width=W, seed=0, pixel_noise=0.5))


def test_reproject_peaks_within_four_and_a_half_planes(scene):
    z, (R, t) = scene.depth(18), scene.relative_pose(18, 17)
    assert peak_planes(lambda: reproject(z, R, t, scene.intrinsics)) <= 4.5


def test_an_edge_without_occluders_in_view_peaks_within_seven_planes(scene):
    # frame 17 sees no occluder, so the visibility mask is a constant and no ray is cast
    assert not scene._occluders_in_view(17)
    prov = SyntheticProviders(scene)
    assert peak_planes(lambda: prov.provide_correspondences(18, 17)) <= 7
