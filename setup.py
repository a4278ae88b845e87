"""Setup shim for environments without PEP 660 editable-install support.

The package has no third-party dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro-lba",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
