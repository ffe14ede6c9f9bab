"""Exception types shared across the library."""


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
