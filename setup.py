from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.7.0",
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
