"""Exception taxonomy.

ValueError (and argparse usage problems) mean the caller asked for
something malformed; NumericalError means the request was well-formed but
numerically infeasible (an envelope that does not fit its window, an
undefined stabilizer expectation).  The command line maps the former to
exit status 1 and the latter to 2.
"""

from __future__ import annotations


class NumericalError(RuntimeError):
    """A well-formed computation failed on numerical grounds."""


__all__ = ["NumericalError"]
