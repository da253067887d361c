"""Seeded simulations of decision-regime diversity in hiring and exploration.

Five building blocks:

* :mod:`monolab.streams` - deterministic splittable random streams
* :mod:`monolab.hiring` - noisy-score hiring markets (sequential picks and
  deferred acceptance) under mono, poly, and ensemble score regimes
* :mod:`monolab.exact` - exact joblessness probabilities by enumeration and
  the firm-order sensitivity of the unmatched set, as ``fractions.Fraction``
* :mod:`monolab.bandit2` - greedy two-arm bandit, pooled failure of split
  exploration groups
* :mod:`monolab.hiring_bandit` - many-arm bandit where agents claim
  distinct arms each round

plus :mod:`monolab.experiments` (configs, the parallel driver, CSV and
figures), :mod:`monolab.svg` (dependency-free line charts) and
:mod:`monolab.cli`, the ``monolab`` command-line entry point.  Model
functions take plain arguments and return plain values: numbers, tuples,
dicts and arrays, no record types.
"""

from .streams import RngStream, derive_stream

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "derive_stream",
    "__version__",
]
