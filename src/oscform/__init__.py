"""Exact computation of osculating spaces, higher fundamental forms, and
ruledness diagnostics for parameterized projective varieties.

All arithmetic is over the rationals (or the rational function field of
the parameter space); no floating point is used anywhere.

The tuples that commands build in bulk (matrix rows, exponent keys,
names, coordinates) are built from lists, at their final length, not
from generators.  CPython
allocates a tuple built from an iterator of unknown length at a default
length and resizes it, so its memory comes from one of the tuple free
lists and returns to another.  Only full garbage collections empty
those lists, and a long-running process that calls the CLI many times
has few of them, so with generators its peak memory creeps up.
"""

__version__ = "0.1.0"
