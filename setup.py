"""Package metadata and install requirements.

The project's only packaging file: a plain setuptools script, so that
``pip install -e .`` also works offline with a pip/setuptools that cannot
build PEP 517 editable wheels (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "ASYNC: a cloud engine with asynchrony and history for distributed "
        "machine learning (IPDPS 2020) - full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
)
