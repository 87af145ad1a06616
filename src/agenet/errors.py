"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid run configuration.  Carries every detected problem, not just
    the first, so the user can fix a config file in one pass."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration: " + "; ".join(self.errors))


class BracketError(RuntimeError):
    """A root-finding bracket does not enclose a sign change."""


class AmbiguousActivityError(RuntimeError):
    """The activity constraint admits several roots; the caller must decide."""

    def __init__(self, message, roots, t=None):
        super().__init__(message)
        self.roots = list(roots)
        self.t = t

    @classmethod
    def listing(cls, roots):
        """The error that names each of the roots."""
        return cls("the implicit activity admits " + str(len(roots))
                   + " solutions: " + ", ".join(f"{r:.6g}" for r in roots),
                   roots)


class ModelInconsistencyError(RuntimeError):
    """No admissible activity root exists for the given density."""


class InvariantViolationError(RuntimeError):
    """A running invariant of the scheme failed.  Carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class DegenerateInputError(ValueError):
    """Initial data outside the admissible class for the requested run."""


class SpectrumCountError(RuntimeError):
    """The roots of the renewal characteristic function located right of
    a line do not add up to the argument-principle count there, so the
    leading modes are not certified.  It means a root could not be
    isolated or polished, e.g. a multiple or nearly multiple mode."""
