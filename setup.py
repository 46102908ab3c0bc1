"""Setup shim for environments without the ``wheel`` package.

The repository carries no other packaging metadata (no
``pyproject.toml`` or ``setup.cfg``): the code runs straight from the
checkout with ``PYTHONPATH=src``, which is how the Makefile, CI and the
docs invoke it.  This ``setup()`` call only lets setuptools-driven
tooling (``pip install -e . --no-build-isolation --no-use-pep517``)
resolve the project in offline environments where a PEP-517 build
cannot run.  NumPy is the one runtime dependency: the classifier's
count columns and scoring paths are NumPy arrays.
"""

from setuptools import setup

setup(install_requires=["numpy"])
