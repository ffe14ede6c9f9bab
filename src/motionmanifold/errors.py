"""Exception types and the input-file field checkers shared by the library."""

import json


class SingularFitError(ValueError):
    """Least-squares normal matrix is numerically singular."""


class DistortionUndefinedError(ValueError):
    """Distortion ratio has a degenerate denominator (near-zero trace)."""


class TrainingError(RuntimeError):
    """Optimization produced non-finite values."""


class BranchError(ValueError):
    """Rotation logarithm requested outside the principal branch."""


class NonFiniteError(ValueError):
    """A value that must be finite, such as a field query, is not."""


class DegenerateSupportError(ValueError):
    """Density support points carry no usable spread."""


class SamplingStarvedError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message=None, attempts=0, accepted=0):
        if message is None:
            message = (f"rejection sampling starved: accepted {accepted} "
                       f"of {attempts} attempts")
        super().__init__(message)
        self.attempts = attempts
        self.accepted = accepted


class ReplanInfeasibleError(RuntimeError):
    """No candidate satisfied the replanning constraints."""

    def __init__(self, message=None, n_candidates=0, n_density_ok=0,
                 n_window_ok=0):
        if message is None:
            message = (f"no feasible replan among {n_candidates} candidates "
                       f"({n_density_ok} cleared the density floor, "
                       f"{n_window_ok} the window check)")
        super().__init__(message)
        self.n_candidates = n_candidates
        self.n_density_ok = n_density_ok
        self.n_window_ok = n_window_ok


class GenerationError(RuntimeError):
    """Synthetic demonstration generation could not satisfy its guards."""


def record_field(source, record, key, convert):
    """convert(record[key]), or a ValueError naming the file source and key."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"{source}: missing field {key!r}")
    try:
        return convert(record[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"{source}: field {key!r}: {err}") from None


def read_json(path, parse):
    """parse(the JSON value in the file path).

    A key that parse finds missing raises a ValueError naming the file and
    the key; a value of a type that parse cannot use, one naming the file.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except KeyError as err:
        raise ValueError(f"{path}: missing field {err.args[0]!r}") from None
    except TypeError as err:
        raise ValueError(f"{path}: {err}") from None
