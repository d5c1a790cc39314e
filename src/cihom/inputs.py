"""Rules on user input that the command line shares with the modules it runs.

The errors here reject an input (exit code 2), and ``_OPTION_MINIMUM`` is
the least accepted value of each integer option: the script reader
(``dsl``) checks script options against it and the command line's bound
flags read it too.  They live apart from the modules that raise them so
that ``cli`` can map them to exit codes without loading ``dsl``,
``theorems`` or ``constructions`` for a command that runs none of them.
"""

from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownTheoremError(ValueError):
    pass


class InstanceShapeError(ValueError):
    """An N given to a statement whose instance is M with itself or with M*."""


class InvalidSplitError(ValueError):
    pass


# Least accepted value of each integer option; --steps, --tor-bound,
# --degree-bound and --seed read the same table.  A window needs at least
# four Betti numbers, so window starts at 3.
_OPTION_MINIMUM = {"steps": 1, "bound": 1, "tor_bound": 1, "degree_bound": 0,
                   "max_gens": 1, "max_deg": 1, "samples": 1, "seed": 0,
                   "n": 0, "w": 0, "window": 3}
