"""The package's typed errors: bad input with a stable code, and a broken
internal invariant."""

# Codes carried by ProblemError; a caller maps them to exit codes without
# matching messages.
MALFORMED = "MALFORMED"
RANK_DEFICIENT = "RANK_DEFICIENT"
RHO_RANGE = "RHO_RANGE"
GAMMA_ORDER = "GAMMA_ORDER"
REGION_DOMAIN = "REGION_DOMAIN"
REGION_OVERLAP = "REGION_OVERLAP"


class ProblemError(ValueError):
    """A problem that the quotient cannot be built on, with its code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class InternalError(AssertionError):
    """A broken internal invariant: a fault in the package, not in its input.

    Raised explicitly, so ``python -O`` keeps it, and mapped to exit code 3
    by the CLI.  It subclasses AssertionError, so a caller that catches
    that still catches it.
    """
