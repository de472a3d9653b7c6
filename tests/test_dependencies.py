"""The package imports only the standard library and its declared runtime dependencies."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # "numpy>=1.24" -> "numpy": the name ends at the first version, extra or marker character
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0] for req in requirements}


def absolute_imports(path: Path) -> set[str]:
    """Top-level module names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_absolute_import_is_stdlib_or_a_declared_dependency():
    allowed = declared_dependencies() | set(sys.stdlib_module_names)
    sources = sorted((ROOT / "src" / "flowsplat").glob("*.py"))
    assert sources
    seen = set()
    for path in sources:
        imports = absolute_imports(path)
        assert imports <= allowed, f"{path.name} imports undeclared {sorted(imports - allowed)}"
        seen |= imports
    # the walk did find the imports, so the check above is not vacuous
    assert {"numpy", "scipy"} <= seen


SERVE_ONE_EDGE = """
import sys
import flowsplat
from flowsplat.providers import SceneSpec, SyntheticProviders, SyntheticScene
providers = SyntheticProviders(SyntheticScene(SceneSpec(frames=4, height=48, width=64,
                                                        pixel_noise=0.5)))
providers.provide_correspondences(1, 2)
providers.provide_depth_prior(1)
providers.provide_place_feature(1)
print(sorted(name for name in sys.modules if name.startswith("scipy.spatial")))
"""


def test_serving_providers_does_not_import_scipy_spatial():
    # log imports scipy.spatial.transform on its first call; a process that only
    # serves providers must not pay its memory and import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", SERVE_ONE_EDGE], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
