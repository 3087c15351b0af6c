"""Exception hierarchy and the process exit codes used by the CLI."""

from __future__ import annotations


class DensecolorError(Exception):
    """Base class for all toolkit-specific failures."""


class GraphFormatError(DensecolorError):
    """Malformed graph text; the message carries the offending line number."""


class InstanceTooLargeError(DensecolorError):
    """An enumeration or search cap would be exceeded; nothing was computed."""


class BudgetExceededError(DensecolorError):
    """The search-node budget ran out before the answer was certified."""


class HypothesisNotMetError(DensecolorError):
    """The pipeline precondition chi' >= max(Delta+2, n+1) fails."""

    def __init__(self, chi_prime: int, delta_plus_2: int, n_plus_1: int) -> None:
        self.chi_prime = chi_prime
        self.delta_plus_2 = delta_plus_2
        self.n_plus_1 = n_plus_1
        failed = [
            name
            for name, bound in (("Delta+2", delta_plus_2), ("n+1", n_plus_1))
            if chi_prime < bound
        ]
        super().__init__(
            f"hypothesis not met: chi' = {chi_prime} < "
            f"max(Delta+2 = {delta_plus_2}, n+1 = {n_plus_1}) "
            f"(failing bound(s): {', '.join(failed)})"
        )

    def __reduce__(self):
        # unpickling calls the class with these, not with ``args``
        return type(self), (self.chi_prime, self.delta_plus_2, self.n_plus_1)


class GuaranteeViolationError(DensecolorError):
    """A verified-by-construction step failed its re-check.

    Signals either an implementation bug or a violation of the trusted
    density identity; ``certificate`` carries the offending object in
    serialized form when one is available.
    """

    def __init__(self, message: str, certificate: object = None) -> None:
        self.certificate = certificate
        super().__init__(message)


EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_HYPOTHESIS_NOT_MET = 2
EXIT_TOO_LARGE = 3
EXIT_INPUT_ERROR = 4
EXIT_GUARANTEE_VIOLATION = 5
