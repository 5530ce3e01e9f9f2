"""Exception types shared across the package."""


class WaistlabError(Exception):
    """Base class for all library errors."""


class DomainError(WaistlabError, ValueError):
    """Arguments outside an operation's mathematical domain; carries the
    offending point of a batch as witness, when there is one."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SpecError(WaistlabError, ValueError):
    """Invalid declarative body description; message names the offending field."""


class EvaluationError(WaistlabError, RuntimeError):
    """A body lacks the evaluator needed for the requested computation,
    an iterative evaluator failed to reach its tolerance, or no Monte-Carlo
    sample hit a body whose volume is needed."""


class HypothesisError(WaistlabError):
    """A hypothesis check refuted its hypothesis; carries the witness (the
    direction of a unit-ball check, the frame of a section)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EmptyFiberError(WaistlabError):
    """No point of the body projects onto the requested target."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NetConstructionError(WaistlabError):
    """Covering-net construction could not be certified within its caps."""


class InfeasibleScheduleError(WaistlabError):
    """Parameter schedule violates its feasibility constraints."""


class ConfigError(WaistlabError, ValueError):
    """Malformed or schema-violating experiment configuration."""
