"""Setuptools entry point, the package's only build configuration.

Editable installs also work in offline environments whose setuptools/pip
lack PEP 660 editable-wheel support
(``pip install -e . --no-use-pep517 --no-build-isolation``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reclaiming the energy of a schedule: models and algorithms "
        "(SPAA'11 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy >= 2.0: the SP decomposition's bitset closure uses np.bitwise_count
    install_requires=["numpy>=2.0", "scipy>=1.10", "networkx>=3.0"],
)
