import sys
from pathlib import Path

# the benchmark tests import flowsplat from this checkout, like perfbench/run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
