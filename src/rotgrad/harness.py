"""Experiment harness: synthetic data, training, and metrics.

Two kinds of experiment are supported.  ``fit_single_rotation`` optimizes
one raw representation vector directly and is the fastest way to watch a
gradient rule converge.  ``train`` and ``train_s2`` fit a small MLP that
regresses rotations (or unit vectors) from point-cloud inputs, which is
where the different backward rules actually separate.  Both run the one
training loop ``_train_network`` and supply only their targets, output-head
norm, holdout error and gradient.
"""

from __future__ import annotations

import enum
import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import nn, so3
from .representations import (
    MANIFOLD_REPS,
    DegenerateInputError,
    RepKind,
    _forward_one,
    _quat_to_rot_batch,
    baseline_rotation,
    embed,
    representation_map,
    rotations_from_raw,
)
from .riemannian import (
    _check_count,
    _check_positive_real,
    _check_weight,
    CutLocusError,
    TauSchedule,
    euclid_grad,
    goal_rotation,
    loss_class,
    make_loss,
    riemannian_grad,
    tau_at,
    tau_converge_for,
)
from .rpmg import (
    BLEND_LAM,
    Method,
    RpmgParams,
    _sample_gradient,
    rpmg_gradient,  # unused here: perfbench's tracer binds harness.rpmg_gradient
    rpmg_gradient_batch,
)
from .sphere import TAU_CONVERGE_S2, _row_angles, _s2_gradient_batch, _unit_rows

# what tau="auto" means for the point-set losses, which have no closed-form
# converging step; _resolve_tau is the only reader.  The presets overshoot:
# tau_probe (9d, seed 0) measures a mean goal step of 91 degrees for flow and
# 41 for chamfer.
DEFAULT_TAU_BY_LOSS = {"flow": 50.0, "chamfer": 2.0}

# largest goal step, in radians, that tau="auto" takes under l2 and
# geodesic.  The geodesic landing step tau = 1/2 aims at the target at any
# distance, and past about 90 degrees the relaxed inverse images walk the fit
# to the cut locus; the l2 auto step, tau |phi| = sin(theta), never exceeds it.
AUTO_MAX_GOAL_STEP = 1.0

# the fewest points of a non-coplanar cloud, and rotations for a holdout split
_MIN_POINTS = 4
_MIN_ROTATIONS = 5

TauSpec = Union[str, float, TauSchedule]


class S2Method(enum.Enum):
    """Gradient rules for the unit-vector regression experiment."""

    L2_WITH_NORM = "l2-with-norm"
    L2_WITHOUT_NORM = "l2-without-norm"
    MG = "mg"
    PMG = "pmg"
    RPMG = "rpmg"


S2_METHOD_BY_NAME = {m.value: m for m in S2Method}


@dataclass(frozen=True)
class LrSchedule:
    """Step decay of the Adam learning rate: ``base``, multiplied by 0.1 at
    each milestone iteration.  The update made at iteration ``it`` uses
    ``base * 0.1**k`` where k counts the milestones <= it.  ``milestones``
    is kept as a tuple, so a schedule built from a list hashes."""

    base: float
    milestones: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "milestones", tuple(self.milestones))
        _check_positive_real("base", self.base)
        for m in self.milestones:
            _check_count("milestone", m, 0)
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError(f"milestones must be strictly increasing, got {self.milestones!r}")


LrSpec = Union[float, LrSchedule]


def lr_at(spec: LrSpec, iteration: int) -> float:
    """Learning rate of the update made at an iteration."""
    if not isinstance(spec, LrSchedule):
        return float(spec)
    lr = spec.base
    for milestone in spec.milestones:
        if iteration >= milestone:
            lr *= 0.1
    return lr


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a training run depends on.  Frozen so it can be hashed
    into a manifest; two runs with equal configs produce equal reports.
    Construction rejects what its trainer cannot run, by shared rules:
    integer counts (``iters`` and ``seed`` >= 0, ``n_points`` >= 4,
    ``n_rotations`` >= 5, the rest >= 1), a float ``lr`` that is a finite
    positive real, ``lam`` in [0, 1], and a tau ``_resolve_tau`` accepts.
    ``hidden`` is kept as a tuple, so a config built from a list hashes."""

    rep: RepKind = RepKind.NINE_D
    method: Union[Method, S2Method] = Method.RPMG
    loss: str = "l2"
    lam: float = 0.01
    tau: TauSpec = "auto"
    seed: int = 0
    iters: int = 5000
    batch: int = 32
    n_points: int = 16
    n_rotations: int = 2048
    lr: LrSpec = 1e-3
    eval_every: int = 100
    hidden: Tuple[int, ...] = (128, 128)

    def __post_init__(self) -> None:
        if not isinstance(self.rep, RepKind) or not isinstance(self.method, (Method, S2Method)):
            raise ValueError(f"expected a RepKind and a Method or S2Method, got {self.rep!r}, {self.method!r}")
        loss_class(self.loss)
        sphere = isinstance(self.method, S2Method)
        if sphere and self.loss != "l2":
            raise ValueError(f"the sphere experiment has only the l2 loss, got {self.loss!r}")
        if not sphere and self.method is not Method.VANILLA and self.rep not in MANIFOLD_REPS:
            raise ValueError(f"{self.rep.value} supports only the vanilla method")
        _check_weight("lam", self.lam)
        for name, minimum in (("iters", 0), ("seed", 0), ("batch", 1), ("eval_every", 1),
                              ("n_points", _MIN_POINTS), ("n_rotations", _MIN_ROTATIONS)):
            _check_count(name, getattr(self, name), minimum)
        if not isinstance(self.lr, LrSchedule):
            _check_positive_real("lr", self.lr)
        object.__setattr__(self, "hidden", tuple(self.hidden))
        _check_count("number of hidden layers", len(self.hidden), 1)
        for h in self.hidden:
            _check_count("hidden size", h, 1)
        _resolve_tau(self.tau, None if sphere else self.loss)


@dataclass(frozen=True)
class MetricsRow:
    """Holdout metrics at one evaluation point."""

    iteration: int
    mean_deg: float
    median_deg: float
    acc5: float
    acc3: float
    mean_norm: float


@dataclass(frozen=True)
class MetricsReport:
    rows: Tuple[MetricsRow, ...]
    aborted: bool = False
    diagnostic: str = ""

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]

    @property
    def initial(self) -> MetricsRow:
        return self.rows[0]


@dataclass(frozen=True)
class SyntheticDataset:
    """Point cloud plus rotated copies of it, flattened as network inputs.

    ``points`` is (K, 3), ``rotations`` (N, 3, 3), ``inputs`` (N, 3K) with
    sample n holding rotations[n] @ points[k] for every k, concatenated.
    The first ``n_train`` samples are the training split, the rest holdout.
    """

    points: np.ndarray
    rotations: np.ndarray
    inputs: np.ndarray
    n_train: int

    @property
    def train_slice(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[: self.n_train], self.rotations[: self.n_train]

    @property
    def eval_slice(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[self.n_train :], self.rotations[self.n_train :]


def _spawn_rngs(seed: int, n: int) -> List[np.random.Generator]:
    """Independent counter-based streams derived from one root seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in seq.spawn(n)]


def make_dataset(n_points: int, n_rotations: int, rng: np.random.Generator) -> SyntheticDataset:
    """Sample a non-coplanar cloud and uniformly random rotations of it."""
    _check_count("n_points", n_points, _MIN_POINTS)
    _check_count("n_rotations", n_rotations, _MIN_ROTATIONS)
    while True:
        points = rng.uniform(-1.0, 1.0, size=(n_points, 3))
        centered = points - points.mean(axis=0)
        if np.linalg.svd(centered, compute_uv=False)[-1] > 1e-3:
            break
    raw = rng.standard_normal((n_rotations, 4))
    quats = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rotations = _quat_to_rot_batch(quats)
    rotated = np.einsum("nij,kj->nki", rotations, points)
    inputs = rotated.reshape(n_rotations, 3 * n_points)
    n_train = int(0.8 * n_rotations)
    return SyntheticDataset(points=points, rotations=rotations, inputs=inputs, n_train=n_train)


def _resolve_tau(spec: TauSpec,
                 loss_name: Optional[str]) -> Tuple[Callable[[int], float], Optional[float]]:
    """A run's goal step: a per-iteration tau and a goal-step cap.

    The one place a run's tau is decided.  "auto" is the converging step of
    l2 and geodesic capped at ``AUTO_MAX_GOAL_STEP`` radians, the uncapped
    ``DEFAULT_TAU_BY_LOSS`` preset of flow and chamfer, or the uncapped
    ``TAU_CONVERGE_S2`` of the sphere when ``loss_name`` is None.  A finite
    positive real or a ``TauSchedule`` is used as given, uncapped.  Any
    other spec raises ValueError, which makes this ``ExperimentConfig``'s
    tau validator.
    """
    if isinstance(spec, TauSchedule):
        return (lambda it: tau_at(spec, it)), None
    if isinstance(spec, str) and spec == "auto":
        if loss_name is None:
            return (lambda it: TAU_CONVERGE_S2), None
        if loss_name in DEFAULT_TAU_BY_LOSS:
            const, cap = DEFAULT_TAU_BY_LOSS[loss_name], None
        else:
            const, cap = tau_converge_for(loss_class(loss_name)), AUTO_MAX_GOAL_STEP
        return (lambda it: const), cap
    _check_positive_real("tau other than 'auto' or a TauSchedule", spec)
    const = float(spec)
    return (lambda it: const), None


# ---------------------------------------------------------------------------
# metrics


def _row_from_errors(errors_deg: np.ndarray, iteration: int, mean_norm: float) -> MetricsRow:
    """Summary of geodesic errors in degrees; an even count's median is the lower middle error."""
    ordered = np.sort(errors_deg)
    median = float(ordered[(len(ordered) - 1) // 2])
    return MetricsRow(
        iteration=iteration,
        mean_deg=float(errors_deg.mean()),
        median_deg=median,
        acc5=float(np.mean(errors_deg <= 5.0)),
        acc3=float(np.mean(errors_deg <= 3.0)),
        mean_norm=mean_norm,
    )


# ---------------------------------------------------------------------------
# single-vector fitting


@dataclass(frozen=True)
class FitResult:
    """Trace of a direct fit: per-step geodesic error and raw-output norm.

    ``errors`` and ``norms`` have length iters + 1 (initial state included)
    unless the run aborted early.
    """

    rep: RepKind
    method: Union[Method, S2Method]
    errors: np.ndarray
    norms: np.ndarray
    r_gt: np.ndarray
    x_final: np.ndarray
    aborted: bool = False
    diagnostic: str = ""

    @property
    def final_error(self) -> float:
        """Error after the last step taken; NaN for a fit that aborted at step 0."""
        return float(self.errors[-1]) if len(self.errors) else float("nan")


def fit_single_rotation(
    rep: RepKind,
    method: Method = Method.RPMG,
    loss: str = "l2",
    tau: TauSpec = "auto",
    lam: float = 0.01,
    seed: int = 0,
    iters: int = 2000,
    lr: float = 1e-2,
    x_init: Optional[np.ndarray] = None,
    r_gt: Optional[np.ndarray] = None,
) -> FitResult:
    """Gradient-descend a single raw vector toward one target rotation.

    The raw vector itself is the parameter, so this isolates the gradient
    rule from any network. Unless overridden, the start is a scaled and
    mildly perturbed embedding of a uniformly random rotation and the
    target is placed a geodesic distance in [0.5, 2.5] rad from it. Both
    choices keep the run in the local regime the projections are derived
    for: grossly off-manifold starts can sit in flipped-sheet fixed points
    of the relaxed inverse images whose escape is governed by the slow
    1/(lr*lambda) regularization timescale, and near-antipodal targets sit
    next to the critical set of the loss where every first-order rule
    crawls. A degenerate raw vector, or a geodesic step from the cut
    locus, aborts the run and is reported through the diagnostic instead
    of raising. Each step runs one forward map, at its top, and the
    per-sample gradient on Python floats (``_forward_one`` and
    ``rpmg._sample_gradient``, the functions ``baseline_rotation`` and
    ``rpmg_gradient`` wrap for arrays) at the step ``_resolve_tau`` picks,
    so a fit of ``iters`` steps runs iters + 1 forwards. The target (unless
    given) is drawn around the first forward's rotation and the loss's
    points after it; a degenerate start leaves ``r_gt`` the identity. Under
    ``tau="auto"`` with l2 or geodesic its goal step is capped at
    ``AUTO_MAX_GOAL_STEP`` radians.
    Bad ``iters``, ``seed``, ``lr``, ``lam``, ``loss`` or ``tau`` (by
    ``ExperimentConfig``'s rules), a bad ``x_init``, or an ``r_gt`` that is
    not a finite rotation (orthonormal to 1e-6, det > 0), raise ValueError
    before any sampling.
    """
    _check_count("iters", iters, 0)
    _check_count("seed", seed, 0)
    _check_positive_real("lr", lr)
    loss_class(loss)
    params = RpmgParams(method=method, lam=lam)
    tau_fn, max_step = _resolve_tau(tau, loss)
    if rep not in MANIFOLD_REPS and method is not Method.VANILLA:
        raise ValueError(f"{rep.value} supports only the vanilla method")
    if r_gt is not None:
        r_gt = np.asarray(r_gt, dtype=float)
        if (r_gt.shape != (3, 3) or not np.isfinite(r_gt).all()
                or not np.allclose(r_gt.T @ r_gt, np.eye(3), rtol=0.0, atol=1e-6)
                or np.linalg.det(r_gt) <= 0.0):
            raise ValueError(f"r_gt must be a finite (3, 3) rotation, got {r_gt!r}")
    data_rng, init_rng = _spawn_rngs(seed, 2)
    if x_init is not None:
        x = np.asarray(x_init, dtype=float).copy()
        if x.shape != (rep.ambient_dim,):
            raise ValueError(f"x_init must have shape ({rep.ambient_dim},), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"x_init must be finite, got {x}")
    else:
        r_rand = so3.sample_uniform_rotation(init_rng)
        if rep in MANIFOLD_REPS:
            x = init_rng.uniform(0.5, 2.0) * embed(representation_map(r_rand, rep))
        else:
            x = representation_map(r_rand, rep).value
        x = x + 0.1 * init_rng.standard_normal(rep.ambient_dim)

    # the step runs on Python floats: x, R and the target as lists
    x = x.tolist()
    blend_lam = params.blend_lam
    errors: List[float] = []
    norms: List[float] = []
    diagnostic = ""
    for it in range(iters + 1):
        try:
            r, q = _forward_one(rep, x)
        except DegenerateInputError as exc:
            diagnostic = f"degenerate raw vector at step {it}: {exc}"
            break
        if it == 0:
            if r_gt is None:
                axis = data_rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                angle = data_rng.uniform(0.5, 2.5)
                r_gt = so3.exp_so3(np.array(r).reshape(3, 3), angle * axis)
            loss_inst = make_loss(loss, r_gt, data_rng.uniform(-1.0, 1.0, size=(16, 3)))
            gt = so3._rows(r_gt)
        errors.append(so3._geodesic_distance(r, gt))
        norms.append(math.hypot(*x))
        if it == iters:
            break
        try:
            g = _sample_gradient(rep, method, x, r, q, loss_inst, gt, tau_fn(it),
                                 blend_lam, max_step)
        except DegenerateInputError as exc:
            diagnostic = f"degenerate raw vector at step {it}: {exc}"
            break
        except CutLocusError as exc:
            diagnostic = f"cut locus at step {it}: {exc}"
            break
        if not all(map(math.isfinite, g)):
            diagnostic = f"non-finite gradient at step {it}"
            break
        x = [a - lr * b for a, b in zip(x, g)]
    return FitResult(
        rep=rep,
        method=method,
        errors=np.asarray(errors),
        norms=np.asarray(norms),
        r_gt=np.eye(3) if r_gt is None else r_gt,
        x_final=np.array(x),
        aborted=bool(diagnostic),
        diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# network training on SO(3)


def _calibrate_head(mlp: nn.Mlp, inputs: np.ndarray, target_norm: float) -> None:
    """Rescale the output layer in place so raw outputs start at the target norm.

    Raw-norm dynamics are measured relative to the initial norm, so the
    start should sit at the representation's natural scale rather than at
    whatever scale the fan-in happens to produce; this puts every method
    at the same meaningful starting point.
    """
    ys, _ = nn.forward(mlp, inputs, keep_cache=False)
    current = float(np.linalg.norm(ys, axis=1).mean())
    if current <= 0.0 or not np.isfinite(current):
        raise RuntimeError("initial network outputs have no usable scale")
    mlp.weights[-1] *= target_norm / current


def _train_network(
    config: ExperimentConfig,
    out_dim: int,
    targets_of: Callable[[np.ndarray], np.ndarray],
    head_norm: Callable[[np.ndarray], Optional[float]],
    eval_errors_deg: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gradient: Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray],
) -> MetricsReport:
    """The training loop of ``train`` and ``train_s2``.

    The trainer supplies the MLP's output width and four functions: the
    targets of the dataset's rotations; the norm the output head is
    calibrated to, from the holdout targets (None leaves the head as
    initialized); the holdout errors in degrees of raw outputs against
    targets; and the raw-output gradient of a batch at an iteration, given
    the dataset's point cloud, as a new array, which the loop scales by
    1/batch in place.
    """
    data_rng, init_rng, batch_rng = _spawn_rngs(config.seed, 3)
    dataset = make_dataset(config.n_points, config.n_rotations, data_rng)
    x_tr, r_tr = dataset.train_slice
    x_ev, r_ev = dataset.eval_slice
    t_tr, t_ev = targets_of(r_tr), targets_of(r_ev)
    mlp = nn.init_mlp([dataset.inputs.shape[1], *config.hidden, out_dim], init_rng)
    norm = head_norm(t_ev)
    if norm is not None:
        _calibrate_head(mlp, x_tr, norm)
    adam = nn.adam_init(mlp.params, lr=lr_at(config.lr, 0))

    rows: List[MetricsRow] = []
    aborted = False
    diagnostic = ""
    for it in range(config.iters + 1):
        if it % config.eval_every == 0 or it == config.iters:
            ys, _ = nn.forward(mlp, x_ev, keep_cache=False)
            try:
                errors_deg = eval_errors_deg(ys, t_ev)
            except DegenerateInputError as exc:
                aborted = True
                diagnostic = f"degenerate raw output in evaluation at iteration {it}: {exc}"
                break
            mean_norm = float(np.linalg.norm(ys, axis=1).mean())
            rows.append(_row_from_errors(errors_deg, it, mean_norm))
        if it == config.iters:
            break
        idx = batch_rng.integers(0, len(x_tr), size=config.batch)
        ys, cache = nn.forward(mlp, x_tr[idx])
        try:
            g = gradient(ys, t_tr[idx], it, dataset.points)
        except DegenerateInputError as exc:
            aborted = True
            diagnostic = f"degenerate sample at iteration {it}: {exc}"
            break
        except CutLocusError as exc:
            aborted = True
            diagnostic = f"cut locus at iteration {it}: {exc}"
            break
        if not np.all(np.isfinite(g)):
            aborted = True
            diagnostic = f"non-finite gradient at iteration {it}"
            break
        g /= config.batch
        nn.backward(mlp, cache, g)
        adam.lr = lr_at(config.lr, it)
        nn.adam_step(adam, mlp.params, mlp.grad)
    return MetricsReport(rows=tuple(rows), aborted=aborted, diagnostic=diagnostic)


def train(config: ExperimentConfig) -> MetricsReport:
    """Train an MLP to regress rotations from rotated point clouds.

    Every loss takes the batched route: one ``rpmg_gradient_batch`` call
    per step over the whole batch, with flow and chamfer built on the
    dataset's point cloud.  Manifold reps start with raw outputs at the
    mean norm of the embedded holdout rotations.  Adam's rate follows
    ``config.lr``, a float or an ``LrSchedule``.  Evaluates on the holdout
    split at iteration 0, every ``eval_every`` iterations, and at the final
    iteration.  Non-finite gradients, degenerate raw outputs and geodesic
    cut-locus hits abort the run with a diagnostic rather than raising, so
    sweeps can keep going.
    """
    if not isinstance(config.method, Method):
        raise ValueError(f"train expects a rotation method, got {config.method!r}")
    rep = config.rep
    params = RpmgParams(method=config.method, lam=config.lam)
    tau_fn, max_step = _resolve_tau(config.tau, config.loss)

    def head_norm(r_ev: np.ndarray) -> Optional[float]:
        if rep not in MANIFOLD_REPS:
            return None
        return float(np.array([np.linalg.norm(embed(representation_map(r, rep))) for r in r_ev]).mean())

    def eval_errors_deg(ys: np.ndarray, r_ev: np.ndarray) -> np.ndarray:
        return np.degrees(so3.geodesic_distance_batch(rotations_from_raw(rep, ys), r_ev))

    def gradient(ys: np.ndarray, r_gts: np.ndarray, it: int, points: np.ndarray) -> np.ndarray:
        rs, factors = rotations_from_raw(rep, ys, return_factors=True)
        return rpmg_gradient_batch(rep, ys, rs, r_gts, tau_fn(it), params,
                                   loss=config.loss, points=points, factors=factors,
                                   max_step=max_step)

    return _train_network(config, rep.ambient_dim, lambda rotations: rotations,
                          head_norm, eval_errors_deg, gradient)


# environment variables that set a BLAS library's thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_thread_pool(processes: int):
    """A spawn-started process pool whose workers run one BLAS thread each.

    Forked workers keep the parent's BLAS threads: two of them ran the SO(3)
    acceptance matrix more than twice as slowly as one serial process.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        return multiprocessing.get_context("spawn").Pool(processes)
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


# ---------------------------------------------------------------------------
# network training on the unit sphere


def train_s2(config: ExperimentConfig) -> MetricsReport:
    """Train an MLP to regress the unit vector each rotation sends e3 to.

    The method field selects one of two baselines or one of the three
    manifold-gradient rules; raw outputs start at unit mean norm, and
    everything else mirrors ``train``.

    - ``l2-with-norm`` regresses the raw output x itself onto the unit
      target t, g = 2 (x - t), so the loss also pulls the norm of x to 1.
      Up to O(theta^3) this is twice the mg gradient at the landing step
      (tau = 1/2).
    - ``l2-without-norm`` backpropagates ||x/||x|| - t||^2 by the chain rule
      through the normalization, g = 2 (<x_hat, t> x_hat - t) / ||x||,
      which is orthogonal to x and leaves the norm free.

    The source abstract does not say which of these two its baseline names
    refer to; the names here follow the gradient each one computes.
    """
    if not isinstance(config.method, S2Method):
        raise ValueError(f"train_s2 expects an S2Method, got {config.method!r}")
    method = config.method
    tau_fn, _ = _resolve_tau(config.tau, None)
    lam = BLEND_LAM.get(method.value, config.lam)

    def eval_errors_deg(ys: np.ndarray, t_ev: np.ndarray) -> np.ndarray:
        return np.degrees(_row_angles(_unit_rows(ys)[0], t_ev))

    def gradient(ys: np.ndarray, t: np.ndarray, it: int, points: np.ndarray) -> np.ndarray:
        if method is S2Method.L2_WITH_NORM:
            return 2.0 * (ys - t)
        if method is S2Method.L2_WITHOUT_NORM:
            x_hat, norms = _unit_rows(ys)
            dots = np.sum(x_hat * t, axis=1)
            return 2.0 * (dots[:, None] * x_hat - t) / norms[:, None]
        return _s2_gradient_batch(ys, t, tau_fn(it), lam)

    return _train_network(config, 3, lambda rotations: rotations[:, :, 2],
                          lambda t_ev: 1.0, eval_errors_deg, gradient)


# ---------------------------------------------------------------------------
# tau probing for losses without a closed-form converging step


def tau_probe(
    rep: RepKind,
    loss: str,
    taus: Sequence[float],
    seed: int = 0,
    n_samples: int = 64,
    n_points: int = 16,
) -> List[Tuple[float, float]]:
    """Report how far the goal rotation moves for each candidate tau.

    Returns (tau, mean geodesic distance from the current rotation to the
    goal) pairs, useful for picking a step size when no analytic one
    exists. Distances grow monotonically with tau until the exponential
    wraps, so look for the knee. By ``ExperimentConfig``'s rules ``loss``
    is a trainer loss name, ``taus`` holds finite positive reals (a list or
    an array, not empty), and ``n_samples``, ``n_points`` and ``seed`` are
    integers >= 1, 4 and 0; anything else raises ValueError before sampling.
    """
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} has no manifold structure to probe")
    loss_class(loss)
    _check_count("number of taus", len(taus), 1)
    for tau in taus:
        _check_positive_real("every tau", tau)
    _check_count("n_samples", n_samples, 1)
    _check_count("n_points", n_points, _MIN_POINTS)
    _check_count("seed", seed, 0)
    rng = _spawn_rngs(seed, 1)[0]
    cases = []
    for _ in range(n_samples):
        r_gt = so3.sample_uniform_rotation(rng)
        points = rng.uniform(-1.0, 1.0, size=(n_points, 3))
        loss_inst = make_loss(loss, r_gt, points)
        r0 = so3.sample_uniform_rotation(rng)
        x = rng.uniform(0.5, 2.0) * embed(representation_map(r0, rep))
        x = x + 0.05 * rng.standard_normal(x.shape)
        r = baseline_rotation(rep, x)
        cases.append((r, riemannian_grad(r, euclid_grad(loss_inst, r))))
    results = []
    for tau in taus:
        total = 0.0
        for r, phi in cases:
            total += so3.geodesic_distance(r, goal_rotation(r, phi, float(tau)))
        results.append((float(tau), total / n_samples))
    return results
