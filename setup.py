"""Package metadata and legacy install shim.

The offline environment has setuptools but not the ``wheel`` package, so
PEP 660 editable installs (which shell out to ``bdist_wheel``) fail.
This classic ``setup.py`` keeps ``pip install -e . --no-use-pep517
--no-build-isolation`` working and declares the full package tree under
``src/`` so non-editable installs ship every subpackage
(``repro.stream`` included).
"""

from setuptools import find_packages, setup

setup(
    name="repro-ipv6-prefix-rotation",
    version="1.0.0",
    description=(
        'Reproduction of "Follow the Scent: Defeating IPv6 Prefix '
        'Rotation Privacy" (IMC 2021)'
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # No hard dependencies: the library is stdlib-only.  numpy powers
    # the columnar streaming kernel (repro.stream.columnar) and is
    # optional -- without it the bulk ingest paths run the scalar
    # per-observation fold (ShardState.observe), the same one ingest()
    # always runs: identical results, just slower.
    extras_require={"fast": ["numpy"]},
)
