"""The benchmark checks every delivery with `perfbench/oracle.py`; it must keep working.

The oracle reads the scene through `pose_c2w(k).matrix()`, `depth`,
`prior_affine` and `intrinsics`. It is loaded read-only from its file and run
on one small scene, so a change to those that breaks the benchmark's checks
fails here too, not only in the benchmark's own suite.
"""

import importlib.util
from pathlib import Path

import pytest

from flowsplat.providers import SceneSpec, SyntheticProviders, SyntheticScene

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
EDGES = [(4, 3), (4, 6), (5, 1), (5, 9)]
FRAMES = [3, 4, 5]


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_providers(pixel_noise):
    scene = SyntheticScene(SceneSpec(trajectory="line", frames=12, height=48, width=64, seed=1,
                                     pixel_noise=pixel_noise, prior_scale_range=(0.5, 2.0),
                                     prior_offset_range=(-0.1, 0.1)))
    return scene, SyntheticProviders(scene)


@pytest.mark.parametrize("pixel_noise", [0.0, 0.5])
def test_oracle_passes_every_synthetic_delivery(oracle, pixel_noise):
    scene, prov = make_providers(pixel_noise)
    for i, j in EDGES:
        assert oracle.edge_problems(scene, prov.provide_correspondences(i, j), i, j) == []
    for k in FRAMES:
        assert oracle.prior_problems(scene, k, prov.provide_depth_prior(k)) == []
        assert oracle.feature_problems(prov.provide_place_feature(k), k) == []


def test_oracle_flags_shifted_targets_and_priors(oracle):
    scene, prov = make_providers(0.0)
    upd = prov.provide_correspondences(4, 6)
    upd.target[..., 0] += 0.1
    assert oracle.edge_problems(scene, upd, 4, 6)
    assert oracle.prior_problems(scene, 3, prov.provide_depth_prior(3) * 1.01)
