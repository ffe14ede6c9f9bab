"""Motion-manifold movement primitives.

Via-point trajectory curves with Gaussian bases over a linear phase, an
autoencoder latent manifold with an optional isometric regularization
under the Euclidean curve metric (the basis Gram matrix), latent
densities with threshold rejection sampling, SE(3) pose curves, and
sampling-based online replanning against moving obstacles.
"""

from .basis import (BasisSet, CurveModel, TimedTrajectory, evaluate_batch,
                    evaluate_rows, load_trajectory_dataset,
                    save_trajectory_dataset)
from .density import (GmmModel, KdeModel, RejectionResult, SampleFilter,
                      fit_density, gmm_fit, kde_build, min_loglik_threshold,
                      rejection_sample, save_density)
from .envs import (EvalReport, ModelBundle, PlanarEnv,
                   build_bundle, collision_check, evaluate_success,
                   fit_demos, generate_continuum_demos, generate_env,
                   sample_curves, success_rate)
from .errors import (BranchError, DegenerateSupportError,
                     DistortionUndefinedError, GenerationError,
                     NonFiniteError, ReplanInfeasibleError,
                     SamplingStarvedError, SingularFitError, TrainingError)
from .geometry import CurveGeomMetric
from .lie import (PoseCurveModel, Se3CurveParams, Se3Trajectory,
                  eval_rotation_curve, exp_so3, fit_se3_params, log_so3,
                  make_pouring_demos, se3_recon_loss, train_se3)
from .nets import AdamState, Mlp, adam_step
from .replan import (DynamicConstraint, EpisodeTrace, MovingDisk,
                     ReplanConfig, ReplanState, constraint_from_script,
                     predict_violation, run_episode, save_obstacle_script,
                     solve_replan)
from .training import ManifoldModel, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BasisSet", "BranchError", "CurveGeomMetric", "CurveModel",
    "DegenerateSupportError", "DistortionUndefinedError",
    "DynamicConstraint", "EpisodeTrace", "EvalReport", "GenerationError",
    "GmmModel", "KdeModel", "ManifoldModel", "Mlp", "ModelBundle",
    "MovingDisk", "NonFiniteError", "PlanarEnv", "PoseCurveModel",
    "RejectionResult", "ReplanConfig", "ReplanInfeasibleError",
    "ReplanState", "SampleFilter", "SamplingStarvedError", "Se3CurveParams",
    "Se3Trajectory", "SingularFitError",
    "TimedTrajectory", "TrainConfig",
    "TrainingError", "adam_step", "build_bundle", "collision_check",
    "constraint_from_script",
    "eval_rotation_curve", "evaluate_batch", "evaluate_rows",
    "evaluate_success", "exp_so3",
    "fit_demos", "fit_density", "fit_se3_params", "generate_continuum_demos",
    "generate_env", "gmm_fit", "kde_build", "load_trajectory_dataset",
    "log_so3", "make_pouring_demos", "min_loglik_threshold",
    "predict_violation", "rejection_sample", "run_episode",
    "sample_curves", "save_density", "save_obstacle_script",
    "save_trajectory_dataset", "se3_recon_loss",
    "solve_replan", "success_rate", "train", "train_se3",
]
