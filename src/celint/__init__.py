"""Exact intersection-theoretic integrals on normal-crossing resolution data.

Each name has one home: callers import the submodules (`celint.chow`,
`celint.model`, `celint.celestial`, ...), and the package root
re-exports nothing.
"""

# `chow` imports `catalog` at its end, and `model` imports `modelfile`
# at its end. Loading both with the package lets `celint.catalog` or
# `celint.modelfile` be the first module a program imports; without
# this, that first import is circular and fails.
from . import chow, model  # noqa: F401

__version__ = "0.1.0"
