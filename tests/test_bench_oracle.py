"""The benchmark checks every delivery with `perfbench/oracle.py`; it must keep working.

The oracle reads the scene through `pose_c2w(k).matrix()`, `depth`,
`prior_affine` and `intrinsics`. It is loaded read-only from its file and run
on the traffic of the benchmark's `tiny_graph` workload (48x64 scenes on its
seeds, window +-4), so a change to those or to the providers that breaks the
benchmark's checks fails here too, not only in the benchmark's own suite.
"""

import importlib.util
from pathlib import Path

import pytest

from flowsplat.providers import SceneSpec, SyntheticProviders, SyntheticScene

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
WINDOW = 4  # tiny_graph's window: edges (k, k +- 1..4)
KEYFRAMES = range(4, 68, 9)  # interior keyframes, a benchmark pass's first and last included
SEEDS = [1000, 3002, 7001, 10005]  # the benchmark's scene seeds: seed * 1000 + pass


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_providers(pixel_noise, trajectory="line", seed=1):
    """A scene shaped like tiny_graph's: 100 frames at 48x64 with corrupted priors."""
    scene = SyntheticScene(SceneSpec(trajectory=trajectory, frames=100, height=48, width=64,
                                     seed=seed, pixel_noise=pixel_noise,
                                     prior_scale_range=(0.5, 2.0),
                                     prior_offset_range=(-0.1, 0.1)))
    return scene, SyntheticProviders(scene)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trajectory", ["line", "orbit"])
@pytest.mark.parametrize("pixel_noise", [0.0, 0.5])
def test_oracle_passes_every_synthetic_delivery(oracle, pixel_noise, trajectory, seed):
    scene, prov = make_providers(pixel_noise, trajectory, seed)
    for k in KEYFRAMES:
        for j in range(k - WINDOW, k + WINDOW + 1):
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
