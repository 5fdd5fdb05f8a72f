"""Setuptools shim.

Kept so that ``pip install -e .`` works without network access: with no
``[build-system]`` table pip does not need to download build dependencies
into an isolated environment (this repository targets offline use).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.26.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
