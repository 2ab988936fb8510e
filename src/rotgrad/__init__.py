"""Gradient layers for rotation regression.

Neural networks that output rotations emit an unconstrained ambient vector
that a many-to-one mapping turns into a rotation matrix.  The layers here
replace the chain-rule gradient of that mapping with one built from a
Riemannian descent step on SO(3): walk the predicted rotation toward the
target, pull the moved rotation back through the analytic closest point of
its inverse image, and regress the raw output toward that point, with an
optional regularization term that keeps raw norms from collapsing.

The subpackages split as: representation mappings
(:mod:`~rotgrad.representations`), rotation-group primitives
(:mod:`~rotgrad.so3`), losses and Riemannian descent
(:mod:`~rotgrad.riemannian`), the gradient layers themselves
(:mod:`~rotgrad.rpmg`), the 2-sphere analogue (:mod:`~rotgrad.sphere`),
a numpy MLP (:mod:`~rotgrad.nn`), experiment drivers
(:mod:`~rotgrad.harness`), and the verification checks
(:mod:`~rotgrad.checks`).  :mod:`~rotgrad.lin_core`, a small dense solver,
is imported by no module of the package.  The checks load on first use of
``rotgrad.CheckResult`` or ``rotgrad.run_checks``, so importing the package
for training does not compile or load them.
"""

__version__ = "0.1.0"

from .representations import (
    DegenerateInputError,
    MANIFOLD_REPS,
    ManifoldPoint,
    RepKind,
    baseline_backward,
    baseline_rotation,
    embed,
    representation_map,
)
from .riemannian import (
    Chamfer,
    CutLocusError,
    Flow,
    GeodesicSquared,
    L2Frobenius,
    NoAnalyticTauError,
    TauSchedule,
    euclid_grad,
    euclid_grad_batch,
    goal_rotation,
    loss_value,
    riemannian_grad,
    tau_at,
    tau_converge_for,
    tau_gt_l2,
)
from .rpmg import (
    Method,
    RpmgParams,
    inverse_project,
    rpmg_gradient,
    rpmg_gradient_batch,
)
from .sphere import TAU_CONVERGE_S2
from .harness import (
    ExperimentConfig,
    FitResult,
    LrSchedule,
    MetricsReport,
    MetricsRow,
    S2Method,
    fit_single_rotation,
    make_dataset,
    tau_probe,
    train,
    train_s2,
)

__all__ = [
    "__version__",
    "DegenerateInputError",
    "MANIFOLD_REPS",
    "ManifoldPoint",
    "RepKind",
    "baseline_backward",
    "baseline_rotation",
    "embed",
    "representation_map",
    "Chamfer",
    "CutLocusError",
    "Flow",
    "GeodesicSquared",
    "L2Frobenius",
    "NoAnalyticTauError",
    "TauSchedule",
    "euclid_grad",
    "euclid_grad_batch",
    "goal_rotation",
    "loss_value",
    "riemannian_grad",
    "tau_at",
    "tau_converge_for",
    "tau_gt_l2",
    "Method",
    "RpmgParams",
    "inverse_project",
    "rpmg_gradient",
    "rpmg_gradient_batch",
    "TAU_CONVERGE_S2",
    "ExperimentConfig",
    "FitResult",
    "LrSchedule",
    "MetricsReport",
    "MetricsRow",
    "S2Method",
    "fit_single_rotation",
    "make_dataset",
    "tau_probe",
    "train",
    "train_s2",
    "CheckResult",
    "run_checks",
]


def __getattr__(name):
    if name in ("CheckResult", "run_checks"):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
