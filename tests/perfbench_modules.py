"""Test helper: load a ``perfbench/`` module from its file, without putting ``perfbench/`` on the path."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """The spec and the not yet executed module of ``perfbench/<name>.py``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    return spec, importlib.util.module_from_spec(spec)


def load_tracing():
    """``perfbench/tracing.py``, executed."""
    spec, module = load("tracing")
    spec.loader.exec_module(module)
    return module
