"""Setuptools packaging for the repro-eie library.

The base install depends only on numpy::

    pip install -e .            # the library
    pip install -e .[dev]       # + test tooling
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def _version() -> str:
    """Read ``__version__`` from the package source without importing it."""
    text = (HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"$', text, re.MULTILINE)
    if not match:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-eie",
    version=_version(),
    description=(
        "Reproduction of EIE: Efficient Inference Engine on Compressed "
        "Deep Neural Network (ISCA 2016)"
    ),
    long_description=(HERE / "README.md").read_text(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "dev": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro-eie = repro.cli:main"],
    },
)
