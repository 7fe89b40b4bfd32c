"""Hypothesis settings profiles, chosen by ``HYPOTHESIS_PROFILE``.

``tier1``, the default, runs 25 derandomized examples per law with no
example database. ``deep`` runs 1000 random examples per law from one seed,
printed at the end of the run; ``--hypothesis-seed=<seed>`` replays it. A
test's own ``@settings`` override the profile, so only the laws that leave
``max_examples`` to it run deeper:

    HYPOTHESIS_PROFILE=deep python -m pytest -q tests/test_pipeline.py::TestPipelineLaws
"""

import os
import secrets

import pytest
from hypothesis import settings

settings.register_profile("tier1", max_examples=25, derandomize=True, database=None)
settings.register_profile("deep", max_examples=1000, derandomize=False, database=None, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # before hypothesis' own hook, which reads --hypothesis-seed
    if PROFILE == "deep" and config.getoption("hypothesis_seed") is None:
        config.option.hypothesis_seed = str(secrets.randbits(32))


def pytest_terminal_summary(terminalreporter, config):
    if PROFILE == "deep":
        seed = config.getoption("hypothesis_seed")
        terminalreporter.write_line(f"hypothesis profile 'deep', seed {seed}: replay with --hypothesis-seed={seed}")
