"""The package's typed internal error."""


class InternalError(AssertionError):
    """A broken internal invariant: a fault in the package, not in its input.

    Raised explicitly, so ``python -O`` keeps it, and mapped to exit code 3
    by the CLI.  It subclasses AssertionError, so a caller that catches
    that still catches it.
    """
