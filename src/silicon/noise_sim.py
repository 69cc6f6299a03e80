"""Monte Carlo model of annotation against an error-prone reference.

Items carry a latent true label y ~ priors over K classes.  The reference
labeler is right with probability 1 - error_rate and otherwise uniform over
the K - 1 wrong classes.  The model's label comes from a row-stochastic
confusion matrix p(. | y), optionally coupled to the reference's mistakes.
Under that symmetric reference noise, agreement-with-reference decomposes as

    reference_agreement = slope * truth_agreement + chance_rate + co_label_term

with slope = (1 - e) - e/(K-1), chance_rate = e/(K-1), and co_label_term the
truth-conditional covariance between the model and the reference picking the
same label.  simulate() estimates every quantity from the draws (the
co_label_term estimator is the plug-in joint-minus-product, so the residual of
the identity is a genuine cross-check, not an echo of the algebra), and
contrast() compares two configurations sharing a reference: an observed
agreement gain implies lower true error only when it exceeds the co-labeling
shift.

Randomness comes from counter-based Philox streams spawned per role
(0 = truth draws, 1 = reference noise, 2 = model base draws, 3 = coupling),
item i consuming slot i of each stream, so adding estimators never perturbs
existing draws.  Each categorical draw is an inverse CDF: the cumulative sums
of each distinct row are built once, and an item's label is the number of its
row's cumulative sums, all but the last, that are at or below its uniform.
Every estimator is read off one K x K x K count table of (true label, model
label, reference label).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from .core import ValidationError, _rng_from_seed

__all__ = ["SimConfig", "SimResult", "ContrastReport", "simulate", "contrast", "load_sim_config"]

_SIMPLEX_TOL = 1e-12
_MIN_ITEMS = 100
# one-sided z for calling a truth-agreement shift real rather than noise
_SIGNIF_Z = 1.96


@dataclass(frozen=True)
class SimConfig:
    n_classes: int
    priors: tuple[float, ...]
    error_rate: float
    llm_confusion: tuple[tuple[float, ...], ...]
    coupling: float = 0.0
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        k = self.n_classes
        if k < 2:
            raise ValidationError("need at least 2 classes")
        pri = np.asarray(self.priors, dtype=float)
        if pri.shape != (k,) or (pri < 0).any() or abs(pri.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValidationError(f"priors must be a length-{k} simplex (tolerance {_SIMPLEX_TOL})")
        conf = np.asarray(self.llm_confusion, dtype=float)
        if conf.shape != (k, k):
            raise ValidationError(f"llm_confusion must be {k}x{k}")
        if (conf < 0).any() or (np.abs(conf.sum(axis=1) - 1.0) > _SIMPLEX_TOL).any():
            raise ValidationError(f"llm_confusion rows must be stochastic (tolerance {_SIMPLEX_TOL})")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValidationError("error_rate must lie in [0, 1]")
        if not -1.0 <= self.coupling <= 1.0:
            raise ValidationError("coupling must lie in [-1, 1]")
        if self.n_samples < _MIN_ITEMS:
            raise ValidationError(f"n_samples must be >= {_MIN_ITEMS}")
        object.__setattr__(self, "priors", tuple(float(x) for x in pri))
        object.__setattr__(
            self, "llm_confusion", tuple(tuple(float(x) for x in row) for row in conf)
        )

    def to_json(self) -> dict:
        return {
            "n_classes": self.n_classes,
            "priors": list(self.priors),
            "error_rate": self.error_rate,
            "llm_confusion": [list(r) for r in self.llm_confusion],
            "coupling": self.coupling,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "SimConfig":
        """The keys of to_json(), plus an optional "name" that only labels the
        file and is ignored.  Any other key is an error, so a misspelt field
        is never silently left at its default."""
        try:
            unknown = sorted(set(obj) - _CONFIG_KEYS)
            if unknown:
                raise ValidationError(f"bad sim config: unknown keys {unknown}; "
                                      f"expected some of {sorted(_CONFIG_KEYS)}")
            return cls(
                n_classes=int(obj["n_classes"]),
                priors=tuple(obj["priors"]),
                error_rate=float(obj["error_rate"]),
                llm_confusion=tuple(tuple(r) for r in obj["llm_confusion"]),
                coupling=float(obj.get("coupling", 0.0)),
                n_samples=int(obj.get("n_samples", 100_000)),
                seed=int(obj.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad sim config: {exc}") from exc


# what a sim config file may hold: the SimConfig fields and an ignored "name"
_CONFIG_KEYS = frozenset(f.name for f in fields(SimConfig)) | {"name"}


def load_sim_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return SimConfig.from_json(obj)


@dataclass(frozen=True)
class SimResult:
    truth_agreement: float       # fraction of items where the model hits y
    reference_agreement: float   # fraction where it matches the reference
    co_label_term: float         # plug-in joint-minus-product estimate
    slope: float                 # (1 - e) - e/(K - 1)
    chance_rate: float           # e / (K - 1)
    measurement_error: float     # 1 - truth_agreement
    identity_residual: float
    std_error: float             # binomial SE of reference_agreement at n
    n_samples: int

    def to_json(self) -> dict:
        return {
            "truth_agreement": self.truth_agreement,
            "reference_agreement": self.reference_agreement,
            "co_label_term": self.co_label_term,
            "slope": self.slope,
            "chance_rate": self.chance_rate,
            "measurement_error": self.measurement_error,
            "identity_residual": self.identity_residual,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
        }


def _streams(seed: int, count: int = 4) -> list[np.random.Generator]:
    return [_rng_from_seed(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _inverse_cdf(rows: np.ndarray, which, u: np.ndarray) -> np.ndarray:
    """Draw item i from rows[which[i]] (from rows[which] when which is an int)
    with the uniform u[i]: the first j with u[i] < cum[j], where cum is the
    row's cumsum with its last entry set to 1.0.

    A cumsum of nonnegative entries never decreases, so the entries before
    the last that are <= u[i] form a prefix whose length is that first j.  The
    last entry is never counted, which keeps j exact even where the cumsum
    passes 1.0 before its last entry.
    """
    cum = np.cumsum(rows, axis=1)
    out = np.zeros(u.size, dtype=np.intp)
    for col in cum[:, :-1].T:
        out += u >= col[which]
    return out


def _redraw_rows(conf: np.ndarray) -> np.ndarray:
    """Row y*K + ref: the confusion row of y with the reference label zeroed
    out, renormalised; rows that put all mass there fall back to uniform over
    the rest."""
    k = conf.shape[0]
    y, ref = np.divmod(np.arange(k * k), k)
    rows = conf[y]
    rows[np.arange(k * k), ref] = 0.0
    dead = rows.sum(axis=1) <= 0.0
    if dead.any():
        rows[dead] = 1.0
        rows[np.flatnonzero(dead), ref[dead]] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def simulate(cfg: SimConfig) -> SimResult:
    k = cfg.n_classes
    n = cfg.n_samples
    e = cfg.error_rate
    streams = _streams(cfg.seed)
    priors = np.asarray(cfg.priors)
    conf = np.asarray(cfg.llm_confusion)

    y = _inverse_cdf(priors[None, :], 0, streams[0].random(n))

    # reference: right w.p. 1 - e, else uniform over the K - 1 other classes
    wrong = np.flatnonzero(streams[1].random(n) < e)
    offsets = streams[1].integers(1, k, size=n)
    ref = y.copy()
    ref[wrong] = (y[wrong] + offsets[wrong]) % k

    yhat = _inverse_cdf(conf, y, streams[2].random(n))

    if cfg.coupling != 0.0:
        hit = np.flatnonzero(streams[3].random(n) < abs(cfg.coupling))
        if cfg.coupling > 0:
            yhat[hit] = ref[hit]
        elif hit.size:
            # redraw from the confusion row with the reference label zeroed out
            yhat[hit] = _inverse_cdf(_redraw_rows(conf), y[hit] * k + ref[hit],
                                     streams[3].random(hit.size))

    # counts[y, yhat, ref]: every estimator below is read off this one table
    counts = np.bincount((y * k + yhat) * k + ref, minlength=k ** 3).reshape(k, k, k)
    diag = np.arange(k)
    truth_agreement = int(counts[diag, diag, :].sum()) / n
    reference_agreement = int(counts[:, diag, diag].sum()) / n

    # plug-in co-labeling: sum over classes of joint minus product, weighted by
    # the empirical class shares
    co = 0.0
    for c in range(k):
        table = counts[c]
        nk = int(table.sum())
        if nk == 0:
            continue
        joint = table[diag, diag] / nk
        p_hat = table.sum(axis=1) / nk
        q_hat = table.sum(axis=0) / nk
        co += (nk / n) * float((joint - p_hat * q_hat).sum())

    slope = (1.0 - e) - e / (k - 1)
    chance_rate = e / (k - 1)
    residual = abs(reference_agreement - (slope * truth_agreement + chance_rate + co))
    se = float(np.sqrt(reference_agreement * (1.0 - reference_agreement) / n))
    return SimResult(
        truth_agreement=truth_agreement,
        reference_agreement=reference_agreement,
        co_label_term=co,
        slope=slope,
        chance_rate=chance_rate,
        measurement_error=1.0 - truth_agreement,
        identity_residual=residual,
        std_error=se,
        n_samples=n,
    )


@dataclass(frozen=True)
class ContrastReport:
    """Two configurations against the same reference, and whether the observed
    agreement gain is evidence of lower true error.

    error_reduced / error_increased are one-sided calls at 1.96 x the binomial
    SE of the truth-agreement delta; the raw delta alone is a coin flip when
    the true change is zero.  identity_consistent checks, on the estimates,
    that the gain exceeds the co-labeling shift exactly when truth agreement
    moved up.
    """

    base: SimResult
    variant: SimResult
    delta_reference_agreement: float
    delta_truth_agreement: float
    delta_co_label_term: float
    se_delta_reference: float
    se_delta_truth: float
    reference_gain: bool
    error_reduced: bool
    error_increased: bool
    identity_consistent: bool

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "variant": self.variant.to_json(),
            "delta_reference_agreement": self.delta_reference_agreement,
            "delta_truth_agreement": self.delta_truth_agreement,
            "delta_co_label_term": self.delta_co_label_term,
            "se_delta_reference": self.se_delta_reference,
            "se_delta_truth": self.se_delta_truth,
            "reference_gain": self.reference_gain,
            "error_reduced": self.error_reduced,
            "error_increased": self.error_increased,
            "identity_consistent": self.identity_consistent,
        }


def _binom_se(p: float, n: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / n))


def contrast(base_cfg: SimConfig, variant_cfg: SimConfig,
             run: Callable[[SimConfig], SimResult] | None = None) -> ContrastReport:
    """Simulate both configs and compare. They must share the reference process.

    `run` maps a config to its result (default: simulate); a caller that has
    already simulated either config passes a lookup that reuses it.
    """
    if base_cfg.n_classes != variant_cfg.n_classes:
        raise ValidationError("contrast requires matching n_classes")
    if base_cfg.priors != variant_cfg.priors:
        raise ValidationError("contrast requires matching priors")
    if base_cfg.error_rate != variant_cfg.error_rate:
        raise ValidationError("contrast requires a shared reference error_rate")
    run = run or simulate
    base = run(base_cfg)
    variant = run(variant_cfg)

    d_ref = variant.reference_agreement - base.reference_agreement
    d_truth = variant.truth_agreement - base.truth_agreement
    d_co = variant.co_label_term - base.co_label_term
    se_ref = float(np.hypot(
        _binom_se(base.reference_agreement, base.n_samples),
        _binom_se(variant.reference_agreement, variant.n_samples),
    ))
    se_truth = float(np.hypot(
        _binom_se(base.truth_agreement, base.n_samples),
        _binom_se(variant.truth_agreement, variant.n_samples),
    ))
    return ContrastReport(
        base=base,
        variant=variant,
        delta_reference_agreement=d_ref,
        delta_truth_agreement=d_truth,
        delta_co_label_term=d_co,
        se_delta_reference=se_ref,
        se_delta_truth=se_truth,
        reference_gain=d_ref > 0.0,
        error_reduced=d_truth > _SIGNIF_Z * se_truth,
        error_increased=d_truth < -_SIGNIF_Z * se_truth,
        identity_consistent=(d_ref > d_co) == (d_truth > 0.0),
    )
