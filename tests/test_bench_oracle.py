"""The benchmark checks every delivery with `perfbench/oracle.py`; it must keep working.

The oracle reads the scene through `pose_c2w(k).matrix()`, `depth`,
`prior_affine` and `intrinsics`. It is loaded read-only from its file and run
on the traffic of the benchmark's `tiny_graph` workload (48x64 scenes on its
seeds, window +-4) and on one keyframe of `qvga_window` (240x320 orbit, window
+-2), so a change to those or to the providers that breaks the benchmark's
checks fails here too, not only in the benchmark's own suite.
"""

import importlib.util
from pathlib import Path

import pytest

from flowsplat.providers import SceneSpec, SyntheticProviders, SyntheticScene

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
SEEDS = [1000, 3002, 7001, 10005]  # the benchmark's scene seeds: seed * 1000 + pass
# (height, width), window and keyframes; tiny_graph's keyframes include a pass's first and last
TINY_GRAPH = ((48, 64), 4, range(4, 68, 9))
QVGA_WINDOW = ((240, 320), 2, [9])
DELIVERIES = [pytest.param(pixel_noise, trajectory, seed, TINY_GRAPH,
                           id=f"{pixel_noise}-{trajectory}-{seed}")
              for pixel_noise in (0.0, 0.5) for trajectory in ("line", "orbit") for seed in SEEDS]
DELIVERIES.append(pytest.param(0.5, "orbit", 1000, QVGA_WINDOW, id="qvga-0.5-orbit-1000"))


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_providers(pixel_noise, trajectory="line", seed=1, shape=(48, 64)):
    """A scene like the benchmark's: 100 frames of (height, width) `shape`, corrupted priors."""
    scene = SyntheticScene(SceneSpec(trajectory=trajectory, frames=100, height=shape[0],
                                     width=shape[1], seed=seed, pixel_noise=pixel_noise,
                                     prior_scale_range=(0.5, 2.0),
                                     prior_offset_range=(-0.1, 0.1)))
    return scene, SyntheticProviders(scene)


@pytest.mark.parametrize("pixel_noise, trajectory, seed, workload", DELIVERIES)
def test_oracle_passes_every_synthetic_delivery(oracle, pixel_noise, trajectory, seed, workload):
    shape, window, keyframes = workload
    scene, prov = make_providers(pixel_noise, trajectory, seed, shape)
    for k in keyframes:
        for j in range(k - window, k + window + 1):
            if j != k:
                assert oracle.edge_problems(scene, prov.provide_correspondences(k, j), k, j) == []
        assert oracle.prior_problems(scene, k, prov.provide_depth_prior(k)) == []
        assert oracle.feature_problems(prov.provide_place_feature(k), k) == []


def test_oracle_flags_shifted_targets_and_priors(oracle):
    scene, prov = make_providers(0.0)
    upd = prov.provide_correspondences(4, 6)
    upd.target[..., 0] += 0.1
    assert oracle.edge_problems(scene, upd, 4, 6)
    assert oracle.prior_problems(scene, 3, prov.provide_depth_prior(3) * 1.01)
