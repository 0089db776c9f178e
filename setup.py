"""Package metadata and install script for :mod:`repro` (tegkit).

Plain setuptools metadata: ``pip install -e . --no-deps
--no-build-isolation`` installs the package where the ``wheel`` package
is present (pip's editable build needs it), and ``python setup.py
develop`` does so offline without it.  The version is read from
``src/repro/_about.py`` without importing the package.
"""

from pathlib import Path

from setuptools import find_packages, setup

_about: dict = {}
exec((Path(__file__).parent / "src/repro/_about.py").read_text(), _about)

setup(
    name="tegkit",
    version=_about["__version__"],
    description="Reproduction of: " + _about["PAPER_TITLE"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
