"""Error types shared across the library.

The CLI maps these onto its stable exit codes: consistency failures are 1,
invalid input is 2, resource-cap overruns are 3.
"""


class AdmzError(Exception):
    """Base class for all library errors."""


class InvalidInputError(AdmzError, ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class NotAdmissibleError(InvalidInputError):
    """A level p/q violating the admissibility bound 2q+p-2 >= 0."""


class ConsistencyError(AdmzError, RuntimeError):
    """An internal cross-check or stated property failed (CLI exit code 1)."""


class ResourceCapError(AdmzError, RuntimeError):
    """A weight-space dimension or the size of the mff route's epsilon
    exceeded the configured cap, a level's cold solve, the only code that
    recurses, exceeded the interpreter's recursion limit, or a result number
    is over the interpreter's digit limit for printing (CLI exit code 3)."""
