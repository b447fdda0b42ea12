"""Exception hierarchy shared by every module in the package.

Three failure modes are distinguished because the command line interface
maps them to different exit codes: bad input (exit 2), a refused
computation whose enumeration cap was exceeded or whose answer is too
long to print (exit 3), and an internal
exact-arithmetic self-check that did not come out true (exit 4: a bug,
never an input problem).
"""


class NrbError(Exception):
    """Base class for all package-specific errors."""


class InputError(NrbError):
    """Malformed or inconsistent input data."""


class CapExceededError(NrbError):
    """An enumeration-based routine refused an instance above its size
    cap, or a formatter a value past the digit limit for printing."""


class InternalCheckError(NrbError):
    """An exact self-verification failed; indicates a defect, not bad input."""
