"""numpy, imported on the first attribute lookup instead of with the package.

``from ._lazy import np`` gives a stand-in for the numpy module: its first
lookup of a name imports numpy, and each name it has looked up is then an
attribute of its own.  So ``citeineq fit`` and ``citeineq plotdata``, which
need no arrays, start without numpy.  No module-level code may use ``np``: a
constant, a default argument or a class body that does would import numpy
with the package again.  Annotations may name it, since every module that
imports it defers them with ``from __future__ import annotations``.
"""

import importlib


class _Numpy:
    def __getattr__(self, name: str):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)
        return value


np = _Numpy()
