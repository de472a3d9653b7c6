"""In-memory spans around calls into flowsplat's public functions.

The benchmark measures each layer from outside: `Tracer.install` replaces the
class methods in `METHODS` and module functions in `FUNCTIONS` with wrappers that
record one span per call while `Tracer.enabled` is set, and `uninstall` puts
the originals back. Spans stay in memory until `write_jsonl` writes them out.

A span is (id, parent id, keyframe, name, start ns, end ns, work). A layer's
self time is its span time minus the time of its child spans; calls are
strictly nested because the benchmark has one caller and no threads.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from flowsplat import geometry, providers

DSPT_HEADER_BYTES = 20


def _pixels(args, kwargs, result):
    return np.asarray(args[0]).size


def _bytes_written(args, kwargs, result):
    return DSPT_HEADER_BYTES + 4 * np.asarray(args[1]).size


def _bytes_read(args, kwargs, result):
    return DSPT_HEADER_BYTES + 4 * result.size


METHODS = [
    (geometry.SE3Pose, ("compose", "apply")),
    (providers.SyntheticScene, ("depth", "disparity", "world_points", "visible_from")),
    (providers.SyntheticProviders,
     ("provide_correspondences", "provide_depth_prior", "provide_place_feature")),
    (providers.PrecomputedProviders,
     ("provide_correspondences", "provide_depth_prior", "provide_place_feature")),
]
# (name, modules that bind it, work counter). A function is patched in every
# module that binds it, so calls made inside flowsplat are seen too.
FUNCTIONS = [
    ("reproject", (geometry, providers), _pixels),
    ("project", (geometry, providers), None),
    ("write_dspt", (providers,), _bytes_written),
    ("read_dspt", (providers,), _bytes_read),
    ("dump_providers", (providers,), None),
]


def layer_name(fn) -> str:
    """`<module>.<qualname>`, e.g. `geometry.SE3Pose.compose`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.keyframe = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, work):
        name = layer_name(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                    tracer.keyframe, name, 0, 0, 0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                tracer._stack.pop()
            if work is not None:
                span[6] = work(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for cls, names in METHODS:
            for attr in names:
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], None))
        for attr, modules, work in FUNCTIONS:
            wrapper = self._wrap(getattr(modules[0], attr), work)
            for module in modules:
                self._patch(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layers(self) -> dict[str, dict]:
        """Per-layer totals: calls, inclusive ns, self ns and work."""
        out: dict[str, dict] = {}
        child_ns = [0] * len(self.spans)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for sid, _, _, name, t0, t1, work in self.spans:
            row = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": 0})
            row["calls"] += 1
            row["incl_ns"] += t1 - t0
            row["self_ns"] += t1 - t0 - child_ns[sid]
            row["work"] += work
        return out

    def root_ns(self) -> int:
        return sum(t1 - t0 for _, parent, _, _, t0, t1, _ in self.spans if parent < 0)

    def write_jsonl(self, path):
        keys = ("id", "parent", "keyframe", "name", "start_ns", "end_ns", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
