"""Single-query planning: cost-aware multi-objective Bayesian search.

Configurations and placements are searched with resources over-provisioned
(all fractions 1.0); any plan feasible at some allocation is feasible at
full allocation, so the search-phase pool is a superset that contains the
optimum and fine-grained resource allocation is deferred to Pareto pruning
and the multi-query scheduler.

Two independent Gaussian-process surrogates drive the acquisition: one maps
a configuration's option indices to accuracy, the other maps those and the
plan's tiers to latency. The acquisition multiplies the probability of meeting
each SLO and divides by the predicted profiling cost, so expensive plans
must earn their evaluation. Each surrogate's posterior grows by one
rank-one step per observation (a pool index), so every prediction is a
lookup: the accuracy model lives on the pool's distinct configurations,
the latency model on its rows, and a pool row reads its accuracy through
its configuration index. Completed sessions leave their predictions over
that pool in a history store and hand back their observations, which a
replan takes in again; new sessions on the same pool let the most similar
histories (smallest prediction gap against fresh observations) vote on
proposals until the session's own model outpredicts them. A step indexes
everything by pool row: it reads whole-pool scores and a boolean mask of
the profiled rows, which it never picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import latency as latmod
from .landscape import GroundTruthLandscape
from .model import (
    RESOURCE_FRACTIONS,
    PipelineSpec,
    PlanPoint,
    Query,
    SpaceTooLargeError,
    TierTopology,
    Verdict,
    enumerate_search_pool,
    pareto_filter,
    search_pool_codes,
)
from .profiler import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_N_MAX,
    DEFAULT_PLANNER_STRATA,
    NullCache,
    PrefixCache,
    profile_plan,
    profile_plan_fixed_n,
    stratify,
)

GP_NOISE = 1e-4
COST_FLOOR_DOLLARS = 1e-6
GAP_EPS = 1e-6
#: Simulated optimizer seconds charged per search step on top of profiling.
STEP_OVERHEAD_S = 0.04
#: History models that vote on each proposal (the smallest gaps).
HISTORY_TOP_K = 10
#: Observation-noise multiplier of a replan, whose GPs take in the prior observations again.
VARIANCE_INFLATION = 25.0
#: Trailing observations a session's own prediction gap averages over.
GAP_WINDOW_LEN = 5
#: Completed sessions the history store keeps (oldest evicted first).
HISTORY_CAPACITY = 32


class OneHot(NamedTuple):
    """Integer code rows as one-hot bytes, one table row per (column, code):
    ``table[offsets[c] + k, i]`` is 1 if row ``i``'s code in column ``c``
    is ``k``, else 0."""

    table: np.ndarray
    offsets: np.ndarray


def one_hot_table(codes: np.ndarray) -> OneHot:
    """The :class:`OneHot` table of non-negative integer code rows ``codes``."""
    sizes = codes.max(axis=0).astype(np.intp) + 1
    offsets = np.cumsum(sizes) - sizes
    table = np.zeros((int(sizes.sum()), len(codes)), np.min_scalar_type(codes.shape[1]))
    table[offsets + codes, np.arange(len(codes))[:, None]] = 1
    table.setflags(write=False)
    return OneHot(table, offsets)


class GaussianProcess:
    """Exact GP regression over the fixed input rows ``pool`` (a search
    pool's distinct configurations or its plans, as integer code rows) and
    observation noise ``noise``. The kernel is exp(-h), h the number of
    codes in which two rows differ: ½‖x_i − x_j‖² is exactly h on their
    one-hot rows, so this is the RBF kernel (length scale 1, unit signal
    variance) on those, bit for bit. Targets are standardized internally;
    no hyperparameter optimization.

    With L the Cholesky factor of K(X, X) + noise*I over the observed rows
    X, the state is V = L⁻¹K(X, pool), w = L⁻¹[y 1] and, per pool row,
    [ky k1] = Vᵀw and var = 1 - ΣV². :meth:`fit` appends one row to L
    (GPML 2006, Alg. 2.1; Seeger 2004) and :meth:`predict` looks rows up.
    ``hot`` is the pool's :func:`one_hot_table`, built here if not given."""

    def __init__(self, pool: np.ndarray, noise: float = GP_NOISE, hot: OneHot | None = None):
        self.pool = pool
        self.noise = noise
        self.rows: list[int] = []
        self._hot = one_hot_table(pool) if hot is None else hot
        ncols = pool.shape[1]
        self._kernel = np.exp(-(ncols - np.arange(ncols + 1.0)))  # exp(-h), indexed by m = ncols - h shared codes
        self._v = np.empty((0, len(pool)))  # V, w and the targets in their leading rows
        self._w = np.empty((0, 2))
        self._y = np.empty(0)
        self._kw = np.zeros((2, len(pool)))
        self._var = np.ones(len(pool))
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def targets(self) -> list[float]:
        return self._y[: len(self.rows)].tolist()

    def fit(self, j: int, y: float) -> "GaussianProcess":
        """Condition on one more observation ``y`` at pool row ``j``. A
        repeated row is one more observation; K + noise*I stays positive
        definite."""
        n = len(self.rows)
        if n == len(self._v):
            grown = [np.empty((max(8, 2 * n), *a.shape[1:])) for a in (self._v, self._w, self._y)]
            for new, old in zip(grown, (self._v, self._w, self._y)):
                new[:n] = old
            self._v, self._w, self._y = grown  # grown by doubling
        v = self._v[:n]
        v_j = v[:, j]
        d = math.sqrt(self._var[j] + self.noise)
        c = np.subtract(self._kernel_row(j), v_j @ v, out=self._v[n])  # written into the new rows of V and w
        c /= d
        w = np.subtract((y, 1.0), v_j @ self._w[:n], out=self._w[n])
        w /= d
        self._kw += np.multiply.outer(w, c)
        self._var -= c * c
        self.rows.append(j)
        self._y[n] = y
        ys = self._y[: n + 1]  # np.mean and np.std of the targets, by numpy's own operations
        self._y_mean = float(np.add.reduce(ys) / (n + 1))
        std = math.sqrt(np.add.reduce((ys - self._y_mean) ** 2) / (n + 1))
        self._y_std = std if std > 1e-12 else 1.0
        return self

    def _kernel_row(self, j: int) -> np.ndarray:
        """exp(-h) at every pool row, h its number of codes unlike row ``j``'s:
        the one-hot table's rows of row ``j``'s codes, summed, count the
        codes each pool row shares with it."""
        table, offsets = self._hot
        matches = np.add.reduce(table[offsets + self.pool[j]], axis=0, dtype=table.dtype)
        return self._kernel.take(matches, mode="clip")  # in range; "clip" skips the bounds check

    def mean(self, idx):
        """Predictive mean at the pool rows ``idx`` (an index array, a slice
        or one row): ȳ(1 - k1) + ky, the standardized posterior mean mapped
        back."""
        ky, k1 = self._kw[:, idx]
        return self._y_mean * (1.0 - k1) + ky

    def predict(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and std (always positive) at the pool rows
        ``idx``, an index array or a slice, as new arrays."""
        return self.mean(idx), self._y_std * np.sqrt(np.maximum(self._var[idx], self.noise))


def pool_key(pipeline: PipelineSpec, num_tiers: int) -> tuple[tuple[int, ...], int]:
    """What the search pool and its encoding depend on: the knob-domain
    sizes and the tier count."""
    return tuple(len(op.knob_domain) for op in pipeline.operators), num_tiers


class SearchPool(NamedTuple):
    """A search pool and its column-major code rows. The accuracy model never
    sees placement, so its rows ``xa`` are one per distinct configuration
    (each operator's option), and ``config[i]`` is pool plan ``i``'s row in
    them; the latency rows ``xl`` are one per pool plan: options, then tiers.
    ``hot_a`` and ``hot_l`` are their :func:`one_hot_table` tables."""

    key: tuple
    plans: tuple[PlanPoint, ...]
    xa: np.ndarray
    config: np.ndarray
    xl: np.ndarray
    hot_a: OneHot
    hot_l: OneHot


_SEARCH_POOLS: dict[tuple, SearchPool] = {}


def search_pool(pipeline: PipelineSpec, topology: TierTopology) -> SearchPool:
    """The search pool and its code rows, built once per process for each
    :func:`pool_key` and shared read-only. Every configuration appears once
    per placement, so ``xa`` is :func:`search_pool_codes`' configurations."""
    key = pool_key(pipeline, topology.num_tiers)
    cached = _SEARCH_POOLS.get(key)
    if cached is None:
        plans = tuple(enumerate_search_pool(pipeline, topology))
        configs, placements = search_pool_codes(pipeline, topology.num_tiers)
        xl = np.hstack([np.tile(configs, (len(placements), 1)), np.repeat(placements, len(configs), axis=0)])
        xl = np.asfortranarray(xl, np.min_scalar_type(xl.max()))
        xa = np.asfortranarray(configs, xl.dtype)
        config = np.tile(np.arange(len(configs)), len(placements))
        for rows in (xa, config, xl):
            rows.setflags(write=False)
        cached = _SEARCH_POOLS[key] = SearchPool(key, plans, xa, config, xl, one_hot_table(xa), one_hot_table(xl))
    return cached


class PoolPredictions(NamedTuple):
    """Predictive means and stds, as :meth:`SurrogatePair.predict` returns
    them: accuracy over every distinct configuration, latency over every
    pool row, and ``config``, each pool row's configuration. Row ``i``'s
    accuracy is ``mu_a[config[i]]``."""

    mu_a: np.ndarray
    sd_a: np.ndarray
    config: np.ndarray
    mu_l: np.ndarray
    sd_l: np.ndarray


class Observations(NamedTuple):
    """A session's observations: indices into the search pool with
    :func:`pool_key` ``pool_key``, and the accuracy and latency seen at each."""

    pool_key: tuple
    idx: tuple[int, ...]
    accuracy: tuple[float, ...]
    latency_s: tuple[float, ...]


class SurrogatePair:
    """Accuracy and latency posteriors over one :class:`SearchPool`, whose
    read-only rows they share. The accuracy model lives on the pool's
    distinct configurations and never sees placement or resources; the
    latency model lives on the pool rows and never sees resources (search
    is over-provisioned)."""

    def __init__(self, pool: SearchPool, noise: float = GP_NOISE):
        self.pool_key = pool.key
        self.config = pool.config
        self.f_a = GaussianProcess(pool.xa, noise, pool.hot_a)
        self.f_l = GaussianProcess(pool.xl, noise, pool.hot_l)

    @property
    def n_obs(self) -> int:
        return len(self.f_l.rows)

    def predict(self) -> PoolPredictions:
        """Predictions at every pool row. Each row's is a lookup, bitwise
        what it would be among any other rows."""
        return PoolPredictions(*self.f_a.predict(slice(None)), self.config, *self.f_l.predict(slice(None)))

    def means(self, idx: int) -> tuple[float, float]:
        """Accuracy and latency means at pool plan ``idx``, bitwise those of
        :meth:`predict`."""
        return self.f_a.mean(int(self.config[idx])), self.f_l.mean(idx)

    def fit_new_point(self, idx: int, accuracy: float, latency_s: float) -> None:
        """Condition both models on one more observation, of pool plan ``idx``."""
        self.f_a.fit(int(self.config[idx]), accuracy)
        self.f_l.fit(idx, latency_s)

    def observations(self) -> Observations:
        return Observations(self.pool_key, tuple(self.f_l.rows), tuple(self.f_a.targets), tuple(self.f_l.targets))


class HistoryStore:
    """Ring of completed sessions' predictions over their search pools.

    A finished session's pair is never fit again and later sessions read only
    its predictions, so the store keeps each pair's :func:`pool_key` and its
    :meth:`SurrogatePair.predict` over the whole pool (computed once, at
    push), not the pair. Gaps live in each query's :class:`HistorySession`
    snapshot, so concurrent sessions never share mutable state."""

    def __init__(self):
        self.predictions: list[tuple[tuple, PoolPredictions]] = []

    def push(self, pair: SurrogatePair) -> None:
        """Store a completed session's pool predictions, evicting the oldest
        beyond ``HISTORY_CAPACITY``."""
        self.predictions.append((pair.pool_key, pair.predict()))
        if len(self.predictions) > HISTORY_CAPACITY:
            self.predictions.pop(0)

    def session(self, key: tuple, a_slo: float, l_slo: float) -> "HistorySession":
        """Snapshot the stored predictions whose pool has :func:`pool_key`
        ``key``, ready to vote on that pool against the SLOs."""
        return HistorySession([predicted for k, predicted in self.predictions if k == key], a_slo, l_slo)

    def __len__(self) -> int:
        return len(self.predictions)


class HistorySession:
    """One query's view of the history, and the owner of every prediction
    gap: ``gap_sum[i]`` is stored model ``i``'s cumulative gap over the
    ``gap_n`` profiled observations (each update adds to every model),
    ``gaps`` their means (infinite before any observation), and
    ``own_window`` holds the session's own model's last ``GAP_WINDOW_LEN``
    gaps. Gaps and votes read the same :class:`PoolPredictions`: a gap looks
    up the means at the profiled row (accuracy through its configuration),
    in the stored models' means stacked once per session, and votes score
    the whole pool once per session against this query's SLOs."""

    def __init__(self, predicted: list[PoolPredictions], a_slo: float, l_slo: float):
        self.predicted = predicted
        self.a_slo = a_slo
        self.l_slo = l_slo
        self.gap_sum = np.zeros(len(predicted))
        self.gap_n = 0
        self.gaps = np.full(len(predicted), math.inf)
        self.own_window: list[float] = []
        self._pool_scores: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if predicted:  # one row of means per stored model
            self._config = predicted[0].config
            self._mu_a = np.stack([p.mu_a for p in predicted])
            self._mu_l = np.stack([p.mu_l for p in predicted])

    def top_k(self) -> np.ndarray:
        """Indices of the ``HISTORY_TOP_K`` smallest gaps, ties to the lower index."""
        return self.gaps.argsort(kind="stable")[:HISTORY_TOP_K]

    def votes(self) -> bool:
        """Whether stored models vote: there are some, and the own model's
        mean gap over its window does not beat the best of theirs."""
        # an in-order sum: numpy's mean of fewer than 8 values, bit for bit
        own = reduce(add, self.own_window) / len(self.own_window) if self.own_window else math.inf
        return len(self.predicted) > 0 and not (own < self.gaps.min())

    def update_gaps(self, idx: int, accuracy: float, latency_s: float, surrogates: SurrogatePair) -> None:
        """Add every gap at the profiled pool index ``idx``, before
        ``surrogates`` (the session's own model) sees it. Without stored
        models no gap is ever read, so nothing is looked up."""
        if not self.predicted:
            return
        if surrogates.n_obs > 0:
            gap = prediction_gap(*surrogates.means(idx), accuracy, latency_s, self.l_slo)
            self.own_window = [*self.own_window, gap][-GAP_WINDOW_LEN:]
        mu_a, mu_l = self._mu_a[:, self._config[idx]], self._mu_l[:, idx]
        self.gap_sum += prediction_gap(mu_a, mu_l, accuracy, latency_s, self.l_slo)
        self.gap_n += 1
        self.gaps = self.gap_sum / self.gap_n

    def pool_scores(self, models: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Acquisition scores and costs over the pool of each stored model in
        ``models``. The models this session has not scored yet are scored
        together, in one :func:`acquisition` call on their stacked
        predictions; it is elementwise, so each model's row is bitwise what
        a call on that model alone gives."""
        new = [i for i in dict.fromkeys(models) if i not in self._pool_scores]
        if new:
            chosen = [self.predicted[i] for i in new]
            stacked = PoolPredictions(
                np.stack([p.mu_a for p in chosen]),
                np.stack([p.sd_a for p in chosen]),
                self._config,
                np.stack([p.mu_l for p in chosen]),
                np.stack([p.sd_l for p in chosen]),
            )
            self._pool_scores.update(zip(new, zip(*acquisition(stacked, self.a_slo, self.l_slo))))
        return [self._pool_scores[i] for i in models]

    def vote_indices(self) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Weighted-sum vote of the current top-K at every pool row: each
        model's acquisition scores, weighted by 1/(gap + eps), or uniformly
        before any gap, as a new array. Also returns ``costs_at``, which
        sums the models' costs with the same weights, in the same order, at
        the pool rows it is given (the tie-break reads only the tied ones)."""
        top = self.top_k()
        raw = 1.0 / (self.gaps[top] + GAP_EPS) if self.gap_n else np.ones(len(top))
        weights = raw / raw.sum()
        scored = self.pool_scores(top.tolist())
        combined = np.zeros(len(self._config))
        for w, (scores, _costs) in zip(weights, scored):
            combined += w * scores

        def costs_at(rows: np.ndarray) -> np.ndarray:
            costs = np.zeros(len(rows))
            for w, (_scores, model_costs) in zip(weights, scored):
                costs += w * model_costs[rows]
            return costs

        return combined, costs_at

    def __len__(self) -> int:
        return len(self.predicted)


def prediction_gap(mu_a, mu_l, accuracy: float, latency_s: float, l_slo: float):
    """Dimensionless gap between a model's predictions and one observation:
    accuracy error plus latency error normalized by the latency SLO. The
    means may be arrays, one element per model."""
    return abs(mu_a - accuracy) + abs(mu_l - latency_s) / max(l_slo, 1e-9)


# Cephes ndtr.c (S. L. Moshier): erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8
# and exp(-x^2) R(x)/S(x) for x >= 8, erf(x) = x T(x^2)/U(x^2) for |x| < 1;
# Q, S and U have an implicit leading coefficient of 1.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: log(2^1024): erfc(x) underflows to 0 once x^2 exceeds it
_MAXLOG = 7.09782712893383996843e2


def _band_table(*polys: Sequence[float]) -> np.ndarray:
    """The polynomials ``polys`` (highest degree first) as columns, padded
    with leading zeros to one degree: row k holds their k-th coefficients.
    Horner's rule through a leading zero reads 0 until the first real
    coefficient, so a padded polynomial evaluates bit for bit as itself."""
    degree = max(map(len, polys))
    return np.array([(0.0,) * (degree - len(p)) + tuple(p) for p in polys]).T.copy()


# Numerators and denominators of erf's |x| < 1 band and erfc's two bands.
_NUM = _band_table(_ERF_T, _ERFC_P, _ERFC_R)
_DEN = _band_table((1.0, *_ERF_U), (1.0, *_ERFC_Q), (1.0, *_ERFC_S))


def _horner(arg: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Horner's rule at ``arg`` with per-element coefficients ``coef[k]``,
    highest degree first, as Cephes ``polevl`` evaluates it."""
    y = coef[0].copy()
    for c in coef[1:]:
        y *= arg
        y += c
    return y


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF Φ(a), elementwise, as Cephes ``ndtr`` computes it
    (the algorithm of ``scipy.special.ndtr``). With x = a/√2: 0.5 + 0.5
    erf(x) while |x| < 1, else 0.5 erfc(|x|), reflected for x > 0, with
    erfc's rational function switching at |x| = 8. Every element runs its
    own band's polynomials, so its value depends on it alone and any slice
    of ``a`` gives the same bits. Φ is exactly 0 or 1 where erfc underflows,
    and NaN stays NaN."""
    x = np.multiply(a, math.sqrt(0.5))
    z = np.abs(x)
    small = z < 1.0
    band = (z >= 1.0).view(np.int8) + (z >= 8.0).view(np.int8)
    zc = np.minimum(z, 27.0)  # 27^2 > _MAXLOG, so clipping moves only underflowing elements
    sq = zc * zc
    arg = np.where(small, sq, zc)
    num = _horner(arg, _NUM.take(band, axis=1))
    den = _horner(arg, _DEN.take(band, axis=1))
    np.negative(sq, out=sq)
    under = sq < -_MAXLOG
    e = np.exp(sq, out=sq)
    e[under] = 0.0  # before any product, so no subnormal is multiplied
    r = np.where(small, x, e)
    r *= num
    r /= den
    r *= 0.5
    return np.where(small, 0.5 + r, np.where(x > 0, 1.0 - r, r))


def acquisition(predicted: PoolPredictions, a_slo: float, l_slo: float) -> tuple[np.ndarray, np.ndarray]:
    """Pr[accuracy >= A_slo] * Pr[latency <= L_slo] / C per pool row, and
    C: the accuracy factor is computed once per configuration and gathered
    at each row's configuration. The predictions may be stacked, one row
    per model (``config`` stays one-dimensional); every operation is
    elementwise, so each row is bitwise what that model alone gives.

    C is the dollar cost of profiling a minimum batch of cases at the
    predicted latency, floored to keep the division bounded.
    """
    mu_a, sd_a, config, mu_l, sd_l = predicted
    n_acc = mu_a.shape[-1]
    # one Φ call for both factors: it is elementwise
    p = ndtr(np.concatenate([(mu_a - a_slo) / np.maximum(sd_a, 1e-12), (l_slo - mu_l) / np.maximum(sd_l, 1e-12)], -1))
    p_acc, p_lat = p[..., :n_acc][..., config], p[..., n_acc:]
    costs = np.maximum(
        np.maximum(mu_l, 0.0) * DEFAULT_MIN_SAMPLES / 3600.0 * latmod.DEFAULT_GPU_PRICE_PER_HOUR,
        COST_FLOOR_DOLLARS,
    )
    return p_acc * p_lat / costs, costs


def _argmax_with_ties(scores: np.ndarray, costs_at: Callable[[np.ndarray], np.ndarray]) -> int:
    """Index of the best score; ties go to lowest predicted cost, then index.
    ``costs_at`` maps the tied indices to their costs; a lone best score
    reads none."""
    tied = (scores == scores.max()).nonzero()[0]
    return int(tied[0] if len(tied) == 1 else tied[np.argmin(costs_at(tied))])


def propose(
    profiled: np.ndarray,
    a_slo: float,
    l_slo: float,
    surrogates: SurrogatePair,
    history: HistorySession | None,
    rng: np.random.Generator,
) -> tuple[int, str]:
    """Pool row of the next plan to profile, one the boolean mask
    ``profiled`` leaves free, plus the branch that chose it.

    'history': the history session's stored models vote, while
    :meth:`HistorySession.votes` says so. 'cold': a uniform pick among the
    free rows while the session has no observation. 'cmbo': argmax of the
    session model's acquisition. These two score the whole pool, with the
    profiled rows at -inf; score ties go to the lowest predicted cost.
    """
    if profiled.all():
        raise ValueError("propose called with every pool row profiled")
    if history is not None and history.votes():
        scores, costs_at = history.vote_indices()
        branch = "history"
    elif surrogates.n_obs == 0:
        free = (~profiled).nonzero()[0]
        return int(free[rng.integers(len(free))]), "cold"
    else:
        scores, costs = acquisition(surrogates.predict(), a_slo, l_slo)
        costs_at = costs.__getitem__
        branch = "cmbo"
    scores[profiled] = -math.inf
    return _argmax_with_ties(scores, costs_at), branch


# ---------------------------------------------------------------------------
# Pareto resource pruning


#: Most operators whose 4^m resource lattice Pareto pruning evaluates; a
#: larger pipeline is refused before planning.
MAX_LATTICE_OPERATORS = 10


def _check_lattice_size(pipeline: PipelineSpec) -> None:
    """Raise SpaceTooLargeError for more than MAX_LATTICE_OPERATORS operators."""
    m = len(pipeline)
    if m > MAX_LATTICE_OPERATORS:
        raise SpaceTooLargeError(
            f"{m} operators give {len(RESOURCE_FRACTIONS) ** m} resource allocations per plan; "
            f"Pareto pruning is limited to {MAX_LATTICE_OPERATORS} operators"
        )


def _reducible(feasible: np.ndarray) -> np.ndarray:
    """Allocations of the fraction lattice with a feasible single-step
    reduction: some axis whose next level down (index + 1) is ``feasible``."""
    out = np.zeros_like(feasible)
    for axis in range(feasible.ndim):
        head = (slice(None),) * axis
        out[head + (slice(None, -1),)] |= feasible[head + (slice(1, None),)]
    return out


def pareto_optimize(
    plan: PlanPoint,
    pipeline: PipelineSpec,
    topology: TierTopology,
    timings: latmod.OperatorTimings,
    l_slo: float,
) -> list[tuple[PlanPoint, float, float]]:
    """Tighten per-operator resource fractions until the latency SLO binds.

    Computes the latency of every allocation in one pass of the longest-path
    DP, with operator i's compute times laid along axis i of the fraction
    lattice, and keeps the terminal allocations: within the SLO, with no
    single-step reduction that stays within it. Latency is monotone in every
    fraction, so every feasible allocation is reachable from the
    over-provisioned corner through feasible single-step reductions, and
    these are the allocations where that walk ends. Returns the ``(plan,
    hourly_cost, latency_s)`` rows of their (cost, latency) non-dominated
    subset, in lattice order. Batching operators never affect latency, so
    they always end at the cheapest fraction.

    The rows are computed once per topology and kept in its memo; each call
    returns a new list of them.
    """
    _check_lattice_size(pipeline)
    key = ("pareto", plan, pipeline, timings, l_slo)
    hit = topology._memo.get(key)
    if hit is not None:
        return list(hit)
    m = len(pipeline)
    levels = RESOURCE_FRACTIONS
    speed = timings.tier_speed_factors
    node_w = []
    for i, (base, tier, op) in enumerate(zip(timings.base_compute_s, plan.placement, pipeline.operators)):
        w = [latmod.compute_time(base, f, speed[tier], op.is_batching) for f in levels]
        node_w.append(np.reshape(w, (1,) * i + (-1,) + (1,) * (m - 1 - i)))
    # every operator lies on a path to the sink, so the result spans all m axes
    lat = latmod.longest_path(node_w, plan.placement, pipeline, topology, timings)
    if lat.flat[0] > l_slo:
        raise ValueError(f"plan violates the latency SLO even over-provisioned ({lat.flat[0]:.4f}s > {l_slo:.4f}s)")
    feasible = lat <= l_slo
    rows = []
    for state in zip(*np.nonzero(feasible & ~_reducible(feasible))):
        p = plan.with_resources(tuple(levels[k] for k in state))
        rows.append((p, latmod.plan_hourly_cost(p, topology), float(lat[state])))
    kept = topology._memo[key] = pareto_filter(rows, key=lambda r: r[1:])
    return list(kept)


# ---------------------------------------------------------------------------
# Full single-query session


@dataclass(frozen=True)
class CandidatePlan:
    plan: PlanPoint
    accuracy_estimate: float
    latency_s: float
    hourly_cost: float

    def to_dict(self) -> dict:
        return {
            "configuration": list(self.plan.configuration),
            "placement": list(self.plan.placement),
            "resources": list(self.plan.resources),
            "accuracy_estimate": self.accuracy_estimate,
            "latency_s": self.latency_s,
            "hourly_cost": self.hourly_cost,
        }


@dataclass(frozen=True)
class CandidateSet:
    """SLO-compliant plans, none dominating another in (cost, latency)."""

    plans: tuple[CandidatePlan, ...]

    @staticmethod
    def build(raw: list[CandidatePlan]) -> "CandidateSet":
        kept = pareto_filter(raw, key=lambda c: (c.hourly_cost, c.latency_s))
        return CandidateSet(plans=tuple(kept))

    def __len__(self) -> int:
        return len(self.plans)

    def cheapest(self) -> CandidatePlan | None:
        return min(self.plans, key=lambda c: (c.hourly_cost, c.latency_s), default=None)


@dataclass
class SearchConfig:
    """Planner ablation switches, named as a sim config's ``ablations``
    keys. Profiling is sequential-guided or a fixed-size random sample of
    ``fixed_n`` cases, at most the guided profiler's DEFAULT_N_MAX."""

    warm_start: bool = True  # vote with the history store
    prefix_cache: bool = True
    profiler: str = "guided"  # or "fixed"
    fixed_n: int = 356

    def __post_init__(self) -> None:
        if self.profiler not in ("guided", "fixed"):
            raise ValueError(f"unknown profiler mode {self.profiler!r}; have 'guided', 'fixed'")
        if not 1 <= self.fixed_n <= DEFAULT_N_MAX:
            raise ValueError(f"fixed_n must be >= 1 and <= DEFAULT_N_MAX ({DEFAULT_N_MAX}), got {self.fixed_n}")


@dataclass
class SearchResult:
    candidates: CandidateSet
    charged_time_s: float
    gpu_seconds: float
    dollars: float
    time_to_first_feasible_s: float | None
    steps_to_first_feasible: int | None
    observations: Observations
    telemetry: list[dict]


def single_query_search(
    query: Query,
    land: GroundTruthLandscape,
    topology: TierTopology,
    history: HistoryStore | None = None,
    seed: int = 0,
    config: SearchConfig | None = None,
    warm: Observations | None = None,
) -> SearchResult:
    """Propose -> profile -> Pareto-prune loop under the query's budget.

    Charges simulated time for profiling (reference-tier compute of the
    sampled cases) plus a fixed per-step optimizer overhead. Returns the
    accumulated candidate set, possibly empty, and the session's
    observations. Passing ``warm`` (observations on the same search pool)
    seeds the session with them, at observation noise inflated by
    ``VARIANCE_INFLATION`` (used for drift replanning). A pipeline of more
    than MAX_LATTICE_OPERATORS operators is refused before anything is profiled.
    """
    cfg = config or SearchConfig()
    rng = np.random.default_rng(seed)
    pipeline = query.pipeline
    _check_lattice_size(pipeline)
    pool = search_pool(pipeline, topology)
    strat = stratify(land.case_features, DEFAULT_PLANNER_STRATA, seed=seed)
    cache: PrefixCache | NullCache = PrefixCache() if cfg.prefix_cache else NullCache()
    if warm is None:
        surrogates = SurrogatePair(pool)
    elif warm.pool_key == pool.key:
        surrogates = SurrogatePair(pool, GP_NOISE * VARIANCE_INFLATION)
        for i, accuracy, latency_s in zip(warm.idx, warm.accuracy, warm.latency_s):
            surrogates.fit_new_point(i, accuracy, latency_s)
    else:
        raise ValueError("warm observations come from another search pool")
    if not cfg.warm_start:
        history = None
    hist = None if history is None else history.session(pool.key, query.a_slo, query.l_slo)

    time_s = 0.0
    gpu_s = 0.0
    raw_candidates: list[CandidatePlan] = []
    telemetry: list[dict] = []  # one row per step; every step count is read from it
    profiled = np.zeros(len(pool.plans), dtype=bool)

    def within_budget() -> bool:
        if query.response_budget_s is not None:
            return time_s < query.response_budget_s
        return gpu_s / 3600.0 < query.profiling_budget_gpuh

    while within_budget() and len(telemetry) < len(profiled):  # each step profiles one new row
        idx, branch = propose(profiled, query.a_slo, query.l_slo, surrogates, hist, rng)
        plan = pool.plans[idx]
        time_s += STEP_OVERHEAD_S
        profiled[idx] = True

        if cfg.profiler == "fixed":
            outcome = profile_plan_fixed_n(plan, land, cfg.fixed_n, cache, query.a_slo, rng)
        else:
            outcome = profile_plan(plan, land, strat, cache, query.a_slo, rng)
        time_s += outcome.profiling_cost
        gpu_s += outcome.profiling_cost

        timings = land.timings_for(plan.configuration)
        model_latency = latmod.plan_latency(plan, pipeline, topology, timings)
        if hist is not None:  # gaps compare predictions made before this observation
            hist.update_gaps(idx, outcome.accuracy_estimate, model_latency, surrogates)
        surrogates.fit_new_point(idx, outcome.accuracy_estimate, model_latency)

        feasible = outcome.verdict == Verdict.PASS_ACCURACY and model_latency <= query.l_slo
        if feasible:
            raw_candidates.extend(
                CandidatePlan(variant, outcome.accuracy_estimate, latency_s=lat, hourly_cost=cost)
                for variant, cost, lat in pareto_optimize(plan, pipeline, topology, timings, query.l_slo)
            )
        telemetry.append(
            {
                "step": len(telemetry) + 1,
                "branch": branch,
                "configuration": list(plan.configuration),
                "placement": list(plan.placement),
                "verdict": outcome.verdict.value,
                "accuracy_estimate": outcome.accuracy_estimate,
                "samples": outcome.samples_used,
                "profiling_gpu_s": outcome.profiling_cost,
                "model_latency_s": model_latency,
                "charged_time_s": time_s,
                "gpu_seconds": gpu_s,
                "feasible": feasible,
            }
        )

    candidates = CandidateSet.build(raw_candidates)
    dollars = gpu_s / 3600.0 * latmod.DEFAULT_GPU_PRICE_PER_HOUR
    if history is not None and surrogates.n_obs > 0:
        history.push(surrogates)
    first = next((row for row in telemetry if row["feasible"]), None)
    return SearchResult(
        candidates=candidates,
        charged_time_s=time_s,
        gpu_seconds=gpu_s,
        dollars=dollars,
        time_to_first_feasible_s=None if first is None else first["charged_time_s"],
        steps_to_first_feasible=None if first is None else first["step"],
        observations=surrogates.observations(),
        telemetry=telemetry,
    )
