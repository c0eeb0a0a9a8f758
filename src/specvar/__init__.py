"""specvar: length spectra of hyperbolic surfaces and the number variance
of their random covers."""

from __future__ import annotations

__version__ = "0.1.0"


class Refused(ValueError):
    """A function refused its inputs; the CLI writes nothing and exits 2.

    Every argument check that user input can reach raises this or a
    subclass, so any other exception is a bug.
    """
