"""Package metadata for the ``repro`` value-graph translation validator.

The package is pure Python and lives under ``src/``; the version is the
``__version__`` that ``src/repro/__init__.py`` declares, read as text so
that building never imports the package.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def read_version() -> str:
    text = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__\s*=\s*["\']([^"\']+)["\']', text, re.M)
    if match is None:
        raise RuntimeError("src/repro/__init__.py declares no __version__")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="Value-graph translation validation for an LLVM-like IR "
                "(a reproduction of LLVM-MD, PLDI 2011)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
