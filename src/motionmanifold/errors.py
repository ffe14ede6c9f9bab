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
    """value as a float array, or an error naming its first entry that is
    not finite or saying that its lists are ragged or hold true or false."""
    if any(isinstance(x, bool) for x in np.array(value, dtype=object).flat):
        raise TypeError("expected numbers, got a JSON true or false")
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


def squared_norms_finite(rows):
    """rows (N, d), or a ValueError naming the first row whose squared
    norm overflows, as a squared error or a variance over rows would."""
    big = np.flatnonzero(~(np.hypot.reduce(rows, axis=1)
                           <= np.sqrt(np.finfo(float).max)))
    if len(big):
        raise ValueError(f"row {big[0]} has a squared norm beyond the "
                         f"largest double")
    return rows


def json_list(convert, entry=None):
    """convert for a JSON list: each item through convert, an error naming
    the item as "{entry} {index}" ("layer 1") when entry is given.
    Anything but a list raises a TypeError naming its type."""
    def checked(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return [sourced(f"{entry} {i}", convert, item) if entry
                else convert(item) for i, item in enumerate(value)]
    return checked


def json_object(value):
    """value if it is a JSON object, else a TypeError naming its type."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def sourced(source, call, *args, **kwargs):
    """call(*args, **kwargs), a TypeError or ValueError it raises turned
    into a ValueError that starts with source, such as a file's path."""
    try:
        return call(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{source}: {err}") from None


def record_field(source, record, key, convert):
    """convert(record[key]), or a ValueError naming the file source and key;
    the source of a nested record names its path ("fits.json: field
    'model'")."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"{source}: missing field {key!r}")
    return sourced(f"{source}: field {key!r}", convert, record[key])


def read_json(path, parse):
    """parse(the JSON value in the file path); text that is not JSON
    raises a ValueError naming the file.  parse reads every field through
    record_field and the converters above."""
    with open(path) as fh:
        return parse(sourced(f"{path}: not valid JSON", json.load, fh))
