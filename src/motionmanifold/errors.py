"""Exception types and the input-file field checkers shared by the library."""

import json
import math

import numpy as np


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

    def __init__(self, attempts=0, accepted=0):
        super().__init__(f"rejection sampling starved: accepted {accepted} "
                         f"of {attempts} attempts")
        self.attempts = attempts
        self.accepted = accepted


class ReplanInfeasibleError(RuntimeError):
    """No candidate satisfied the replanning constraints."""

    def __init__(self, n_candidates=0, n_density_ok=0, n_window_ok=0):
        super().__init__(f"no feasible replan among {n_candidates} "
                         f"candidates ({n_density_ok} cleared the density "
                         f"floor, {n_window_ok} the window check)")
        self.n_candidates = n_candidates
        self.n_density_ok = n_density_ok
        self.n_window_ok = n_window_ok


class GenerationError(RuntimeError):
    """Synthetic demonstration generation could not satisfy its guards."""


def numeric(convert):
    """convert for a number read from a file, rejecting a JSON true or
    false, which operator.index and float read as 1 and 0, and a result
    that is not finite."""
    def checked(value):
        if isinstance(value, bool):
            raise TypeError(f"expected a number, got {json.dumps(value)}")
        if not -math.inf < (number := convert(value)) < math.inf:
            raise ValueError(f"{value!r} is not finite")
        return number
    return checked


def finite_array(value):
    """value as a float array, or a ValueError naming its first entry that
    is not finite or saying that its nested lists are ragged."""
    try:
        array = np.asarray(value, dtype=float)
    except ValueError as err:
        if "inhomogeneous" not in str(err):
            raise
        raise ValueError("a ragged list, not an array") from None
    bad = np.argwhere(~np.isfinite(array))
    if len(bad):
        index = bad[0].tolist()
        raise ValueError(f"entry {index} is {array[tuple(index)]}, "
                         f"not finite")
    return array


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

    Text that is not JSON, a key that parse finds missing, and a value of
    a type that parse cannot use each raise a ValueError naming the file
    (and the key, when one is missing).
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON: {err}") from None
    try:
        return parse(data)
    except KeyError as err:
        raise ValueError(f"{path}: missing field {err.args[0]!r}") from None
    except TypeError as err:
        raise ValueError(f"{path}: {err}") from None
