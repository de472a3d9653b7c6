"""flowsplat: geometry and data providers for a dense-flow SLAM core.

The package is organized as a numpy/scipy library:

  geometry        batched SE(3) ops on (R, t) rows, the pinhole camera, project and reproject
  providers       correspondence/depth/feature providers + synthetic scenes
  errors          exception types shared across the package
"""

from .geometry import (PinholeIntrinsics, act, compose, exp, heuristic_intrinsics, inverse, log,
                       project, reproject)

__all__ = ["exp", "log", "compose", "inverse", "act", "PinholeIntrinsics", "project", "reproject",
           "heuristic_intrinsics"]

__version__ = "0.1.0"
