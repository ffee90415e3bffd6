"""Legacy setup shim.

The execution environment has setuptools but no ``wheel`` package, so
PEP 517 editable installs (which build a wheel) fail.  Keeping a classic
``setup.py`` lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works offline.  The version tracks
``repro.__version__``.
"""

from setuptools import setup

setup(version="3.0.0")
