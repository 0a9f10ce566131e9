"""``tools/plot.py`` loaded as a module, for the tests that run it in process."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "plot", Path(__file__).resolve().parents[1] / "tools" / "plot.py"
)
plot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(plot)
