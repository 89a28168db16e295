"""Package metadata.

The core simulator depends only on networkx; the columnar scheduler
backend (``scheduler="vectorized"``) additionally needs numpy and is
packaged as the ``vectorized`` extra::

    pip install 'repro[vectorized]'

Without the extra the backend name still registers as *unavailable*, so
selecting it fails with the install hint rather than an unknown-scheduler
error (see ``repro.congest.vectorized``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Measured CONGEST simulation of low-congestion shortcuts for "
        "graphs excluding dense minors"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["networkx>=3.3"],
    extras_require={
        "vectorized": ["numpy>=1.24"],
    },
)
