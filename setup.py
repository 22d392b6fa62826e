import re
from pathlib import Path

from setuptools import find_packages, setup

# One version number: read ``repro.__version__`` as text, so building
# the package never imports it.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"),
    re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Cycle-level reproduction of Talpes & Marculescu, 'Multiple "
        "Speed Pipelines' (ISCA 2005): dual-clock Flywheel core with "
        "Execution Cache vs. a synchronous baseline"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # The package, both engines included, is dependency-free by design
    # (DESIGN.md).
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
