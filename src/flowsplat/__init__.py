"""flowsplat: geometry and data providers for a dense-flow SLAM core.

The package is organized as a numpy/scipy library:

  geometry        batched SE(3) ops, the pinhole camera, project and reproject
  providers       correspondence/depth/feature providers + synthetic scenes
  errors          exception types shared across the package
"""

from .geometry import PinholeIntrinsics, SE3Pose, heuristic_intrinsics, project, reproject

__all__ = [
    "SE3Pose",
    "PinholeIntrinsics",
    "project",
    "reproject",
    "heuristic_intrinsics",
]

__version__ = "0.1.0"
