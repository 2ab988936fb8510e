"""Experiment harness: synthetic data, training loops, and metrics.

Two kinds of experiment are supported.  ``fit_single_rotation`` optimizes
one raw representation vector directly and is the fastest way to watch a
gradient rule converge.  ``train`` and ``train_s2`` fit a small MLP that
regresses rotations (or unit vectors) from point-cloud inputs, which is
where the different backward rules actually separate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import nn, so3
from .representations import (
    MANIFOLD_REPS,
    DegenerateInputError,
    RepKind,
    baseline_rotation,
    embed,
    representation_map,
    rotations_from_raw,
)
from .riemannian import (
    LOSS_NAMES,
    Chamfer,
    CutLocusError,
    Flow,
    GeodesicSquared,
    L2Frobenius,
    NoAnalyticTauError,
    TauSchedule,
    tau_at,
    tau_converge_for,
)
from .rpmg import (
    DegenerateProjectionError,
    Method,
    RpmgParams,
    rpmg_gradient,
    rpmg_gradient_batch,
)
from .sphere import TAU_CONVERGE_S2

# point-set losses have no closed-form converging step; these were picked
# with tau_probe so that the goal rotation moves a few degrees per step
DEFAULT_TAU_BY_LOSS = {"flow": 50.0, "chamfer": 2.0}

_LOSS_CLASSES = {
    "l2": L2Frobenius,
    "geodesic": GeodesicSquared,
    "flow": Flow,
    "chamfer": Chamfer,
}

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
    ``base * 0.1**k`` where k counts the milestones <= it."""

    base: float
    milestones: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.base > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.base}")
        for m in self.milestones:
            if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
                raise ValueError(f"milestones must be non-negative integers, got {self.milestones!r}")
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
    into a manifest; two runs with equal configs produce equal reports."""

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
        if self.loss not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of {LOSS_NAMES}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        for name in ("iters", "batch", "n_points", "n_rotations", "eval_every"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iters < 0:
            raise ValueError(f"iters must be >= 0, got {self.iters}")
        for name in ("batch", "eval_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_points < 4:
            raise ValueError(f"need at least 4 points, got {self.n_points}")
        if self.n_rotations < 5:
            raise ValueError(f"need at least 5 rotations for a holdout split, got {self.n_rotations}")
        if not lr_at(self.lr, 0) > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not self.hidden or any(int(h) <= 0 for h in self.hidden):
            raise ValueError(f"hidden sizes must be positive, got {self.hidden!r}")
        if isinstance(self.tau, str) and self.tau != "auto":
            raise ValueError(f"tau must be 'auto', a float, or a TauSchedule, got {self.tau!r}")
        if isinstance(self.tau, (int, float)) and not isinstance(self.tau, bool) and self.tau <= 0.0:
            raise ValueError(f"constant tau must be positive, got {self.tau}")


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
    if n_points < 4:
        raise ValueError(f"need at least 4 points, got {n_points}")
    if n_rotations < 5:
        raise ValueError(f"need at least 5 rotations, got {n_rotations}")
    while True:
        points = rng.uniform(-1.0, 1.0, size=(n_points, 3))
        centered = points - points.mean(axis=0)
        if np.linalg.svd(centered, compute_uv=False)[-1] > 1e-3:
            break
    raw = rng.standard_normal((n_rotations, 4))
    quats = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    from .representations import _quat_to_rot_batch

    rotations = _quat_to_rot_batch(quats)
    rotated = np.einsum("nij,kj->nki", rotations, points)
    inputs = rotated.reshape(n_rotations, 3 * n_points)
    n_train = int(0.8 * n_rotations)
    return SyntheticDataset(points=points, rotations=rotations, inputs=inputs, n_train=n_train)


def _make_loss(name: str, r_gt: np.ndarray, points: np.ndarray):
    if name == "l2":
        return L2Frobenius(r_gt)
    if name == "geodesic":
        return GeodesicSquared(r_gt)
    if name == "flow":
        return Flow(r_gt, points.T)
    if name == "chamfer":
        return Chamfer(points, points @ r_gt.T)
    raise ValueError(f"unknown loss {name!r}")


def _resolve_tau(spec: TauSpec, loss_name: str) -> Callable[[int], float]:
    """Turn a tau spec into a per-iteration callable.

    "auto" uses the converging step size of the loss and raises
    NoAnalyticTauError when the loss has none.
    """
    if isinstance(spec, TauSchedule):
        return lambda it: tau_at(spec, it)
    if isinstance(spec, str):
        if spec != "auto":
            raise ValueError(f"unknown tau spec {spec!r}")
        const = tau_converge_for(_LOSS_CLASSES[loss_name])
        return lambda it: const
    const = float(spec)
    if const <= 0.0:
        raise ValueError(f"constant tau must be positive, got {const}")
    return lambda it: const


def _resolve_tau_s2(spec: TauSpec) -> Callable[[int], float]:
    if isinstance(spec, TauSchedule):
        return lambda it: tau_at(spec, it)
    if isinstance(spec, str):
        if spec != "auto":
            raise ValueError(f"unknown tau spec {spec!r}")
        return lambda it: TAU_CONVERGE_S2
    const = float(spec)
    if const <= 0.0:
        raise ValueError(f"constant tau must be positive, got {const}")
    return lambda it: const


# ---------------------------------------------------------------------------
# metrics


def _row_from_errors(errors_deg: np.ndarray, iteration: int, mean_norm: float) -> MetricsRow:
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


def compute_metrics(
    predictions: Sequence[np.ndarray],
    ground_truths: Sequence[np.ndarray],
    iteration: int = 0,
    mean_norm: float = float("nan"),
) -> MetricsRow:
    """Summarize geodesic errors between predicted and true rotations.

    The median is the lower middle element for even counts, so it is always
    an error that actually occurred.
    """
    preds = np.asarray(predictions, dtype=float)
    gts = np.asarray(ground_truths, dtype=float)
    if preds.shape != gts.shape or preds.ndim != 3 or preds.shape[1:] != (3, 3):
        raise ValueError(f"expected matching (n, 3, 3) stacks, got {preds.shape} and {gts.shape}")
    if len(preds) == 0:
        raise ValueError("cannot summarize an empty set of predictions")
    errors_deg = np.degrees(so3.geodesic_distance_batch(preds, gts))
    return _row_from_errors(errors_deg, iteration, mean_norm)


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
        return float(self.errors[-1])


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
    crawls. A degenerate raw vector or projection, or a geodesic step
    from the cut locus, aborts the run and is reported through the
    diagnostic instead of raising. Each step makes one per-sample
    ``rpmg_gradient`` call.
    """
    if loss not in LOSS_NAMES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_NAMES}")
    if rep not in MANIFOLD_REPS and method is not Method.VANILLA:
        raise ValueError(f"{rep.value} supports only the vanilla method")
    data_rng, init_rng = _spawn_rngs(seed, 2)
    if x_init is not None:
        x = np.asarray(x_init, dtype=float).copy()
        if x.shape != (rep.ambient_dim,):
            raise ValueError(f"x_init must have shape ({rep.ambient_dim},), got {x.shape}")
    else:
        r_rand = so3.sample_uniform_rotation(init_rng)
        if rep in MANIFOLD_REPS:
            x = init_rng.uniform(0.5, 2.0) * embed(representation_map(r_rand, rep))
        else:
            x = representation_map(r_rand, rep).value
        x = x + 0.1 * init_rng.standard_normal(rep.ambient_dim)

    errors: List[float] = []
    norms: List[float] = []
    aborted = False
    diagnostic = ""
    try:
        r_start: Optional[np.ndarray] = baseline_rotation(rep, x)
    except DegenerateInputError as exc:
        r_start = None
        aborted = True
        diagnostic = f"degenerate raw vector at step 0: {exc}"

    if r_gt is not None:
        r_gt = np.asarray(r_gt, dtype=float)
    elif r_start is not None:
        axis = data_rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = data_rng.uniform(0.5, 2.5)
        r_gt = so3.exp_so3(r_start, angle * axis)
    else:
        r_gt = np.eye(3)
    points = data_rng.uniform(-1.0, 1.0, size=(16, 3))
    loss_inst = _make_loss(loss, r_gt, points)
    tau_fn = _resolve_tau(tau, loss) if method is not Method.VANILLA else (lambda it: 0.0)
    params = RpmgParams(method=method, lam=lam)

    if not aborted:
        for it in range(iters + 1):
            try:
                r = baseline_rotation(rep, x)
            except DegenerateInputError as exc:
                aborted = True
                diagnostic = f"degenerate raw vector at step {it}: {exc}"
                break
            errors.append(so3.geodesic_distance(r, r_gt))
            norms.append(float(np.linalg.norm(x)))
            if it == iters:
                break
            try:
                g = rpmg_gradient(rep, x, r, loss_inst, tau_fn(it), params)
            except DegenerateProjectionError as exc:
                aborted = True
                diagnostic = f"degenerate projection at step {it}: {exc}"
                break
            except CutLocusError as exc:
                aborted = True
                diagnostic = f"cut locus at step {it}: {exc}"
                break
            if not np.all(np.isfinite(g)):
                aborted = True
                diagnostic = f"non-finite gradient at step {it}"
                break
            x = x - lr * g
    return FitResult(
        rep=rep,
        method=method,
        errors=np.asarray(errors),
        norms=np.asarray(norms),
        r_gt=r_gt,
        x_final=x,
        aborted=aborted,
        diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# network training on SO(3)


def _apply_adam(mlp: nn.Mlp, state: nn.AdamState, dws: List[np.ndarray], dbs: List[np.ndarray]) -> nn.Mlp:
    params = list(mlp.weights) + list(mlp.biases)
    grads = list(dws) + list(dbs)
    updated = nn.adam_step(state, params, grads)
    k = len(mlp.weights)
    return nn.Mlp(weights=updated[:k], biases=updated[k:])


def _calibrate_head(mlp: nn.Mlp, inputs: np.ndarray, target_norm: float) -> nn.Mlp:
    """Rescale the output layer so raw outputs start at the target norm.

    Raw-norm dynamics are measured relative to the initial norm, so the
    start should sit at the representation's natural scale rather than at
    whatever scale the fan-in happens to produce; this puts every method
    at the same meaningful starting point.
    """
    ys, _ = nn.forward(mlp, inputs)
    current = float(np.linalg.norm(ys, axis=1).mean())
    if current <= 0.0 or not np.isfinite(current):
        raise RuntimeError("initial network outputs have no usable scale")
    weights = list(mlp.weights)
    weights[-1] = weights[-1] * (target_norm / current)
    return nn.Mlp(weights=weights, biases=list(mlp.biases))


def train(config: ExperimentConfig) -> MetricsReport:
    """Train an MLP to regress rotations from rotated point clouds.

    Every loss takes the batched route: one ``rpmg_gradient_batch`` call
    per step over the whole batch, with flow and chamfer built on the
    dataset's point cloud. Adam's rate follows ``config.lr``, a float or an
    ``LrSchedule``. Evaluates on the holdout split at iteration 0, every
    ``eval_every`` iterations, and at the final iteration. Non-finite
    gradients, degenerate raw outputs and geodesic cut-locus hits abort the
    run with a diagnostic rather than raising, so sweeps can keep going.
    """
    if not isinstance(config.method, Method):
        raise ValueError(f"train expects a rotation method, got {config.method!r}")
    if config.method is not Method.VANILLA and config.rep not in MANIFOLD_REPS:
        raise ValueError(f"{config.rep.value} supports only the vanilla method")
    data_rng, init_rng, batch_rng = _spawn_rngs(config.seed, 3)
    dataset = make_dataset(config.n_points, config.n_rotations, data_rng)
    x_tr, r_tr = dataset.train_slice
    x_ev, r_ev = dataset.eval_slice
    layer_sizes = [dataset.inputs.shape[1], *config.hidden, config.rep.ambient_dim]
    mlp = nn.init_mlp(layer_sizes, init_rng)
    if config.rep in MANIFOLD_REPS:
        embeds = np.array([np.linalg.norm(embed(representation_map(r, config.rep))) for r in r_ev])
        mlp = _calibrate_head(mlp, x_tr, float(embeds.mean()))
    adam = nn.adam_init(list(mlp.weights) + list(mlp.biases), lr=lr_at(config.lr, 0))
    params = RpmgParams(method=config.method, lam=config.lam)
    if config.method is Method.VANILLA:
        tau_fn: Callable[[int], float] = lambda it: 0.0
    else:
        tau_fn = _resolve_tau(config.tau, config.loss)

    rows: List[MetricsRow] = []
    aborted = False
    diagnostic = ""
    for it in range(config.iters + 1):
        if it % config.eval_every == 0 or it == config.iters:
            ys, _ = nn.forward(mlp, x_ev)
            try:
                rs = rotations_from_raw(config.rep, ys)
            except DegenerateInputError as exc:
                aborted = True
                diagnostic = f"degenerate raw output in evaluation at iteration {it}: {exc}"
                break
            mean_norm = float(np.linalg.norm(ys, axis=1).mean())
            errors_deg = np.degrees(so3.geodesic_distance_batch(rs, r_ev))
            rows.append(_row_from_errors(errors_deg, it, mean_norm))
        if it == config.iters:
            break
        idx = batch_rng.integers(0, len(x_tr), size=config.batch)
        ys, cache = nn.forward(mlp, x_tr[idx])
        try:
            rs = rotations_from_raw(config.rep, ys)
            g = rpmg_gradient_batch(config.rep, ys, rs, r_tr[idx], tau_fn(it), params,
                                    loss=config.loss, points=dataset.points)
        except (DegenerateInputError, DegenerateProjectionError) as exc:
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
        dws, dbs = nn.backward(mlp, cache, g / config.batch)
        adam.lr = lr_at(config.lr, it)
        mlp = _apply_adam(mlp, adam, dws, dbs)
    return MetricsReport(rows=tuple(rows), aborted=aborted, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# network training on the unit sphere


def _s2_gradient_batch(ys: np.ndarray, targets: np.ndarray, tau: float, lam: float) -> np.ndarray:
    """Vectorized twin of s2_rpmg_gradient for training batches."""
    norms = np.linalg.norm(ys, axis=1)
    if np.any(norms <= 1e-8):
        raise DegenerateInputError("raw output too close to the origin to normalize")
    x_hat = ys / norms[:, None]
    dots = np.sum(x_hat * targets, axis=1)
    grads = 2.0 * (dots[:, None] * x_hat - targets)
    v = -tau * grads
    theta = np.linalg.norm(v, axis=1)
    small = theta < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(small, 1.0 - theta**2 / 6.0, np.sin(theta) / np.where(theta == 0.0, 1.0, theta))
    x_hat_g = np.cos(theta)[:, None] * x_hat + sinc[:, None] * v
    if lam == 1.0:
        return ys - x_hat_g
    proj = np.sum(ys * x_hat_g, axis=1)
    x_gp = proj[:, None] * x_hat_g
    if lam == 0.0:
        return ys - x_gp
    return ys - x_gp + lam * (x_gp - x_hat_g)


def train_s2(config: ExperimentConfig) -> MetricsReport:
    """Train an MLP to regress the unit vector each rotation sends e3 to.

    The method field selects one of two baselines or one of the three
    manifold-gradient rules; everything else mirrors ``train``.

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
    data_rng, init_rng, batch_rng = _spawn_rngs(config.seed, 3)
    dataset = make_dataset(config.n_points, config.n_rotations, data_rng)
    targets = dataset.rotations[:, :, 2]
    x_tr, t_tr = dataset.inputs[: dataset.n_train], targets[: dataset.n_train]
    x_ev, t_ev = dataset.inputs[dataset.n_train :], targets[dataset.n_train :]
    layer_sizes = [dataset.inputs.shape[1], *config.hidden, 3]
    mlp = nn.init_mlp(layer_sizes, init_rng)
    mlp = _calibrate_head(mlp, x_tr, 1.0)
    adam = nn.adam_init(list(mlp.weights) + list(mlp.biases), lr=lr_at(config.lr, 0))
    method = config.method
    if method in (S2Method.MG, S2Method.PMG, S2Method.RPMG):
        tau_fn = _resolve_tau_s2(config.tau)
        lam = {S2Method.MG: 1.0, S2Method.PMG: 0.0, S2Method.RPMG: config.lam}[method]
    else:
        tau_fn = lambda it: 0.0
        lam = float("nan")

    rows: List[MetricsRow] = []
    aborted = False
    diagnostic = ""
    for it in range(config.iters + 1):
        if it % config.eval_every == 0 or it == config.iters:
            ys, _ = nn.forward(mlp, x_ev)
            norms = np.linalg.norm(ys, axis=1)
            if np.any(norms <= 1e-8):
                aborted = True
                diagnostic = f"degenerate raw output in evaluation at iteration {it}"
                break
            x_hat = ys / norms[:, None]
            cross = np.linalg.norm(np.cross(x_hat, t_ev), axis=1)
            dot = np.sum(x_hat * t_ev, axis=1)
            errors_deg = np.degrees(np.arctan2(cross, dot))
            rows.append(_row_from_errors(errors_deg, it, float(norms.mean())))
        if it == config.iters:
            break
        idx = batch_rng.integers(0, len(x_tr), size=config.batch)
        ys, cache = nn.forward(mlp, x_tr[idx])
        try:
            if method is S2Method.L2_WITH_NORM:
                g = 2.0 * (ys - t_tr[idx])
            elif method is S2Method.L2_WITHOUT_NORM:
                norms = np.linalg.norm(ys, axis=1)
                if np.any(norms <= 1e-8):
                    raise DegenerateInputError("raw output too close to the origin to normalize")
                x_hat = ys / norms[:, None]
                t = t_tr[idx]
                dots = np.sum(x_hat * t, axis=1)
                g = 2.0 * (dots[:, None] * x_hat - t) / norms[:, None]
            else:
                g = _s2_gradient_batch(ys, t_tr[idx], tau_fn(it), lam)
        except DegenerateInputError as exc:
            aborted = True
            diagnostic = f"degenerate sample at iteration {it}: {exc}"
            break
        if not np.all(np.isfinite(g)):
            aborted = True
            diagnostic = f"non-finite gradient at iteration {it}"
            break
        dws, dbs = nn.backward(mlp, cache, g / config.batch)
        adam.lr = lr_at(config.lr, it)
        mlp = _apply_adam(mlp, adam, dws, dbs)
    return MetricsReport(rows=tuple(rows), aborted=aborted, diagnostic=diagnostic)


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
    wraps, so look for the knee.
    """
    if loss not in LOSS_NAMES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_NAMES}")
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} has no manifold structure to probe")
    if not taus:
        raise ValueError("need at least one tau candidate")
    rng = _spawn_rngs(seed, 1)[0]
    cases = []
    for _ in range(n_samples):
        r_gt = so3.sample_uniform_rotation(rng)
        points = rng.uniform(-1.0, 1.0, size=(n_points, 3))
        loss_inst = _make_loss(loss, r_gt, points)
        r0 = so3.sample_uniform_rotation(rng)
        x = rng.uniform(0.5, 2.0) * embed(representation_map(r0, rep))
        x = x + 0.05 * rng.standard_normal(x.shape)
        r = baseline_rotation(rep, x)
        cases.append((r, loss_inst))
    from .riemannian import euclid_grad, goal_rotation, riemannian_grad

    results = []
    for tau in taus:
        total = 0.0
        for r, loss_inst in cases:
            phi = riemannian_grad(r, euclid_grad(loss_inst, r))
            total += so3.geodesic_distance(r, goal_rotation(r, phi, float(tau)))
        results.append((float(tau), total / n_samples))
    return results
