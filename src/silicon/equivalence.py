"""Equivalence testing of model accuracies via clustered logistic regression.

Each (item, model) observation is a binary match against the reference label.
A logistic regression of match on model dummies (one model as baseline)
recovers, because the design is saturated, exactly

    intercept = logit(accuracy_baseline)
    coef_j    = logit(accuracy_j) - logit(accuracy_baseline)

so a coefficient is the log-odds shift of model j's accuracy against the
baseline.  Standard errors are cluster-robust over items, since the J
observations of one item share its difficulty.  A model is called equivalent
to the baseline when the 95% CI of its coefficient contains 0, better/worse
when the CI clears 0.  A likelihood-ratio test against the intercept-only
model asks whether the models differ at all; its value does not depend on
which model is the baseline.

Perfect (or zero) accuracy makes the log-odds unbounded; such models are
flagged and judged by exact binomial confidence intervals instead, which keeps
the report total.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import LabelValue, ValidationError, _code_maps, _label_codes, _sorted_ids

__all__ = [
    "MatchMatrix",
    "ModelComparison",
    "EquivalenceReport",
    "build_match_matrix",
    "fit_equivalence",
]

_MAX_ITER = 100
_DEV_TOL = 1e-10
_Z95 = 1.96
_Z_ONE_SIDED_95 = 1.6448536269514722  # scipy.special.ndtri(0.95)
_CORRECTIONS = ("CR0", "CR1")  # fit_equivalence's cluster corrections, its default first


@dataclass(frozen=True)
class MatchMatrix:
    """items x models binary matches against a shared reference."""

    items: tuple[str, ...]
    models: tuple[str, ...]
    matches: np.ndarray          # shape (len(items), len(models)), values {0, 1}
    baseline_model: str
    separation_flag: bool = False

    def __post_init__(self):
        m = np.asarray(self.matches)
        if m.shape != (len(self.items), len(self.models)):
            raise ValidationError("match matrix shape disagrees with items/models")
        if len(self.models) < 2:
            raise ValidationError("need at least 2 models")
        if len(self.items) < 2:
            raise ValidationError("need at least 2 items")
        if len(set(self.models)) != len(self.models) or len(set(self.items)) != len(self.items):
            raise ValidationError("duplicate model or item names")
        if not np.isin(m, (0, 1)).all():
            raise ValidationError("matches must be 0/1")
        if self.baseline_model not in self.models:
            raise ValidationError(f"baseline {self.baseline_model!r} not among models")
        object.__setattr__(self, "matches", m.astype(float))
        object.__setattr__(self, "separation_flag",
                           bool((m.min(axis=0) == m.max(axis=0)).any()))

    def accuracy(self, model: str) -> float:
        return float(self.matches[:, self.models.index(model)].mean())


def build_match_matrix(
    model_labels: Mapping[str, Mapping[str, LabelValue]],
    reference: Mapping[str, LabelValue],
    baseline_model: str | None = None,
) -> MatchMatrix:
    """Exact-equality matches of each model against the reference, item by item.

    Every model must cover every reference item (coverage gaps are an error,
    not silently dropped).  Label sets match only when identical.  The maps
    are coded into one items x models matrix for build_match_matrix_codes.
    """
    items, table, matrix = _code_maps(list(model_labels.values()))
    return build_match_matrix_codes(tuple(model_labels), items, table, matrix, reference,
                                    baseline_model)


def build_match_matrix_codes(
    models: Sequence[str],
    items: Sequence,
    table: Sequence[LabelValue],
    matrix: np.ndarray,
    reference: Mapping[str, LabelValue],
    baseline_model: str | None = None,
) -> MatchMatrix:
    """build_match_matrix of an items x models code matrix.

    `matrix[r, j]` is the code into `table` of model `models[j]`'s label for
    `items[r]`, or -1 where it has none (Dataset.code_matrix gives this).
    The table and the reference labels are coded together by
    core._label_codes, and the matches are one comparison of the recoded
    model rows with the reference codes.
    """
    models = tuple(models)
    if len(models) < 2:
        raise ValidationError("need at least 2 models")
    ref_items = tuple(_sorted_ids(reference))
    if len(ref_items) < 2:
        raise ValidationError("need at least 2 reference items")
    row = {item: r for r, item in enumerate(items)}
    at = np.fromiter((row.get(item, -1) for item in ref_items), np.intp, len(ref_items))
    # row -1 picks the appended row of -1s: an item no model labels
    codes = np.vstack((matrix, np.full((1, len(models)), -1, dtype=matrix.dtype)))[at]
    missing = codes < 0
    if missing.any():
        detail = "; ".join(
            f"{name}: {[ref_items[r] for r in np.flatnonzero(lacks)[:5].tolist()]!r}"
            for name, lacks in zip(models, missing.T) if lacks.any()
        )
        raise ValidationError(f"models missing reference items ({detail})")
    _, (rank, ref) = _label_codes(table, [reference[item] for item in ref_items])
    return MatchMatrix(
        items=ref_items,
        models=models,
        matches=(rank[codes] == ref[:, None]).astype(float),
        baseline_model=baseline_model or models[0],
    )


@dataclass(frozen=True)
class ModelComparison:
    model: str
    accuracy: float
    coefficient: float           # log-odds of accuracy vs baseline; +/-inf if separated
    se: float
    ci_low: float
    ci_high: float
    wald_z: float
    wald_p: float
    verdict: str                 # "equivalent" | "better" | "worse"
    separated: bool = False
    method: str = "wald"         # "wald" | "binomial"
    tost_equivalent: bool | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EquivalenceReport:
    baseline_model: str
    baseline_accuracy: float
    intercept: float
    intercept_se: float
    comparisons: tuple[ModelComparison, ...]
    lr_stat: float
    lr_df: int
    lr_p: float
    n_items: int
    n_obs: int
    converged: bool
    n_iter: int
    cluster_correction: str
    separation_flag: bool

    def to_json(self) -> dict:
        return {**asdict(self), "comparisons": [c.to_json() for c in self.comparisons]}


def _log_likelihood(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.clip(mu, 1e-12, 1.0 - 1e-12)
    return float(np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)))


def _irls(p: np.ndarray, n: int):
    """Newton's method on the binomial deviance of J match rates `p` over `n`
    items each, every step taken whole.  Returns (eta, mu, converged, iters),
    eta being the J fitted model logits and mu their means.

    The model-dummy design is saturated and Newton's method does not depend
    on the parametrisation, so each step is a 1-D Newton step per model logit
    from 0.  Between 0 and its optimum a logit's score is convex and falling
    (or concave and rising), so no step overshoots the optimum, and in exact
    arithmetic the deviance falls at every step.
    """
    eta = np.zeros_like(p)
    mu = np.full_like(p, 0.5)
    dev = -2.0 * n * _log_likelihood(p, mu)
    for it in range(1, _MAX_ITER + 1):
        eta = eta + (p - mu) / np.clip(mu * (1.0 - mu), 1e-10, None)
        mu = 1.0 / (1.0 + np.exp(-eta))
        new_dev = -2.0 * n * _log_likelihood(p, mu)
        if abs(dev - new_dev) < _DEV_TOL:
            return eta, mu, True, it
        dev = new_dev
    return eta, mu, False, _MAX_ITER


def _exact_ci(successes: int, trials: int) -> tuple[float, float]:
    from scipy.special import betaincinv  # imported here: only equivalence loads scipy

    alpha = 1.0 - 0.95  # the 95% Clopper-Pearson interval
    # betaincinv(a, b, q) is the beta(a, b) quantile at q
    lo = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


def _binomial_comparison(model, acc, base_acc, n_items) -> ModelComparison:
    ci_m = _exact_ci(round(acc * n_items), n_items)
    ci_b = _exact_ci(round(base_acc * n_items), n_items)
    if ci_m[0] > ci_b[1]:
        verdict = "better"
    elif ci_m[1] < ci_b[0]:
        verdict = "worse"
    else:
        verdict = "equivalent"
    if acc == base_acc:
        coef = 0.0
    else:
        coef = float("inf") if acc > base_acc else float("-inf")
    return ModelComparison(
        model=model, accuracy=acc, coefficient=coef, se=float("nan"),
        ci_low=ci_m[0], ci_high=ci_m[1], wald_z=float("nan"), wald_p=float("nan"),
        verdict=verdict, separated=True, method="binomial",
    )


def fit_equivalence(
    matrix: MatchMatrix,
    correction: str = _CORRECTIONS[0],
    tost_margin: float | None = None,
) -> EquivalenceReport:
    """Fit the model-dummy logistic regression with item-clustered errors.

    The saturated design is fitted as one logit per model, with each item
    one cluster: a standard error is the root sum of squares over items of
    the item's influence on the coefficient, and CR1 scales it by the usual
    small-sample factor.  A model whose column equals the baseline's gets
    exactly 0 +/- 0.  Models whose match column is constant (separation) are
    excluded from the fit and judged by exact binomial CIs; if the baseline
    itself is constant no regression is possible and every model takes the
    binomial route.  tost_margin, when given, additionally runs two one-sided
    tests at 5% against a +/-margin log-odds band (reported per model, not
    the primary verdict); it must be a positive finite number.
    """
    if correction not in _CORRECTIONS:
        raise ValidationError(f"unknown cluster correction {correction!r}")
    if tost_margin is not None and not 0.0 < tost_margin < math.inf:  # nan fails too
        raise ValidationError(f"tost_margin must be a positive finite number, not {tost_margin}")
    from scipy.special import chdtrc, ndtr  # imported here, as in _exact_ci

    models = matrix.models
    baseline = matrix.baseline_model
    n_items = len(matrix.items)
    accs = {m: matrix.accuracy(m) for m in models}
    separated = {m for m in models if accs[m] in (0.0, 1.0)}
    others = [m for m in models if m != baseline]

    fit_models = [baseline] + [m for m in others if m not in separated]
    can_fit = baseline not in separated and len(fit_models) >= 2

    intercept = intercept_se = float("nan")
    lr_stat = lr_p = float("nan")
    lr_df = 0
    converged = False
    n_iter = 0
    n_obs = 0
    coef = {}
    se = {}
    if can_fit:
        j = len(fit_models)
        y = matrix.matches[:, [models.index(m) for m in fit_models]]
        n_obs = y.size
        p = y.mean(axis=0)
        eta, mu, converged, n_iter = _irls(p, n_items)
        # u[i, k]: item i's influence on model k's logit, and after the subtraction
        # on coefficient k; each item is one cluster
        u = (y - mu) / (n_items * mu * (1.0 - mu))
        u[:, 1:] -= u[:, :1]
        ses = np.sqrt(np.einsum("ik,ik->k", u, u))
        if correction == "CR1":
            ses *= math.sqrt((n_items / (n_items - 1)) * ((n_obs - 1) / (n_obs - j)))
        intercept, intercept_se = float(eta[0]), float(ses[0])
        for col in range(1, j):
            coef[fit_models[col]] = float(eta[col] - eta[0])
            se[fit_models[col]] = float(ses[col])
        ll_full = n_items * _log_likelihood(p, mu)
        ll_null = n_items * _log_likelihood(p, np.full_like(p, p.mean()))
        lr_stat = 2.0 * (ll_full - ll_null)
        lr_df = j - 1
        # chdtrc is nan below 0, where the chi-square upper tail is 1
        lr_p = float(chdtrc(lr_df, max(lr_stat, 0.0)))

    comparisons = []
    for m in others:
        if m not in coef:
            comparisons.append(_binomial_comparison(m, accs[m], accs[baseline], n_items))
            continue
        lo = coef[m] - _Z95 * se[m]
        hi = coef[m] + _Z95 * se[m]
        # a zero se means the column is the baseline's, and then coef is 0
        z = coef[m] / se[m] if se[m] > 0 else 0.0
        verdict = "equivalent" if lo <= 0.0 <= hi else ("better" if lo > 0 else "worse")
        comparisons.append(ModelComparison(
            model=m, accuracy=accs[m], coefficient=coef[m], se=se[m],
            ci_low=lo, ci_high=hi, wald_z=z,
            wald_p=float(2.0 * ndtr(-abs(z))), verdict=verdict,
            tost_equivalent=None if tost_margin is None
            else abs(coef[m]) + _Z_ONE_SIDED_95 * se[m] < tost_margin,
        ))

    return EquivalenceReport(
        baseline_model=baseline,
        baseline_accuracy=accs[baseline],
        intercept=intercept,
        intercept_se=intercept_se,
        comparisons=tuple(comparisons),
        lr_stat=lr_stat,
        lr_df=lr_df,
        lr_p=lr_p,
        n_items=n_items,
        n_obs=n_obs,
        converged=converged,
        n_iter=n_iter,
        cluster_correction=correction,
        separation_flag=matrix.separation_flag,
    )
