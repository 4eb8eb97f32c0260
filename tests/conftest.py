"""Shared fixtures."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qtcatalan.rational import product_of_factors

# pytest finds the package through `pythonpath` in pyproject.toml; the
# interpreters the tests start find it through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Address-space cap for children that run inputs with large entries: a
# kernel that sized its integers by the span of the result instead of the
# size of its terms dies there with a MemoryError rather than swapping.
ADDRESS_SPACE_CAP = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.fixture
def run_capped():
    """Run `python *args` in a child process with a capped address space."""

    def run(*args):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            preexec_fn=_cap_address_space,
            timeout=300,  # a hung child fails its test; the slowest takes ~11 s
        )

    return run


@pytest.fixture
def same_value():
    """Whether two FactoredRationals have the same value, by cross-multiplying
    their denominators."""

    def same(x, y):
        return x.numerator * product_of_factors(y.denominator) == (
            y.numerator * product_of_factors(x.denominator)
        )

    return same
