"""Packaging for the THINC (SOSP 2005) reproduction.

Kept as a plain setup.py (rather than pyproject.toml) because the target
environment is offline and lacks the `wheel` package PEP 517 editable
installs require; the legacy `setup.py develop` path works everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "THINC: a virtual display architecture for thin-client computing "
        "(SOSP 2005) - full-system reproduction"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
