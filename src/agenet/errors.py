"""Exception types shared across the package, and the range checks
that the constructors share."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration.  Carries every detected problem, not just
    the first, so the user can fix a config in one pass: (field,
    message) pairs in `problems`, field None for the whole object, and
    "field: message" lines in `errors`."""

    def __init__(self, problems):
        self.problems = list(problems)
        self.errors = [message if field is None else f"{field}: {message}"
                       for field, message in self.problems]
        super().__init__("invalid configuration: " + "; ".join(self.errors))


def _range_problems(obj, nonnegative, positive):
    """(field, message) for each field of obj named in nonnegative that
    is not in [0, inf), then for each named in positive not in (0, inf),
    as a tuple: the accepting path builds nothing."""
    problems = ()
    for name in nonnegative:
        value = getattr(obj, name)
        # NaN fails every comparison, so test for the good range
        if not 0.0 <= value < math.inf:
            problems += ((name, _out_of_range(value, "nonnegative")),)
    for name in positive:
        value = getattr(obj, name)
        if not 0.0 < value < math.inf:
            problems += ((name, _out_of_range(value, "positive")),)
    return problems


def _out_of_range(value, sign):
    return (f"must be {sign}, got {value:g}" if math.isfinite(value)
            else "must be finite")


def _integer(value):
    # a bool is an int, but not a count
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return None
    return f"expected an integer, got {value!r}"


def _passed(problems, *fields):
    """Whether none of fields has a problem: a check across fields runs
    only among fields that passed their own."""
    return all(field not in fields for field, _ in problems)


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
    """The model breaks its stated bounds: no admissible activity root
    exists for the given density, or a custom threshold map gave an age
    that is not finite."""


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
