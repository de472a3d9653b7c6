"""flowsplat: dense-flow SLAM core with a differentiable Gaussian splat renderer.

The package is organized as a numpy/scipy library:

  geometry        SE(3) algebra and the pinhole projection pair
  providers       correspondence/depth/feature providers + synthetic scenes
  errors          exception types shared across the package
"""

from .geometry import (PinholeIntrinsics, SE3Pose, heuristic_intrinsics, project,
                       reproject, rotation_angle_between, se3_exp, se3_log, unproject)

__all__ = [
    "SE3Pose",
    "PinholeIntrinsics",
    "se3_exp",
    "se3_log",
    "project",
    "unproject",
    "reproject",
    "rotation_angle_between",
    "heuristic_intrinsics",
]

__version__ = "0.1.0"
