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

simulate_many() is the one kernel; simulate() runs it on one config.  Configs
with the same (seed, n_samples, n_classes) draw the same uniforms, so one call
spawns their four streams once, draws each stream once, and builds each label
vector once per distinct input: the truth per priors, the reference per
(priors, error_rate), the model's label per (priors, llm_confusion).  Each
config then applies only its coupling overlay, moving the coupled items'
counts in a copy of the shared table.  All positive couplings of one
uncoupled draw share one banded pass: an item with coupling uniform u is
counted once, in the band of the smallest swept coupling above u, and each
coupling's table is the uncoupled table plus the running sum of the bands up
to it, so a sweep costs O(n), not O(n) per point.  Negative couplings redraw
the hit items' labels in the order of their hits, which differs from one
coupling to the next, so each is applied on its own.  Results are
bit-identical to one simulate() per config.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ValidationError, _json_object, _json_value, _read_json, _rng_from_seed

__all__ = ["SimConfig", "SimResult", "ContrastReport", "simulate", "simulate_many", "contrast",
           "load_sim_config"]

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
        # each sum check is written so that a nan entry (a nan sum) fails it
        if pri.shape != (k,) or (pri < 0).any() or not abs(pri.sum() - 1.0) <= _SIMPLEX_TOL:
            raise ValidationError(f"priors must be a length-{k} simplex (tolerance {_SIMPLEX_TOL})")
        conf = np.asarray(self.llm_confusion, dtype=float)
        if conf.shape != (k, k):
            raise ValidationError(f"llm_confusion must be {k}x{k}")
        if (conf < 0).any() or not (np.abs(conf.sum(axis=1) - 1.0) <= _SIMPLEX_TOL).all():
            raise ValidationError(f"llm_confusion rows must be stochastic (tolerance {_SIMPLEX_TOL})")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValidationError("error_rate must lie in [0, 1]")
        if not -1.0 <= self.coupling <= 1.0:
            raise ValidationError("coupling must lie in [-1, 1]")
        if self.n_samples < _MIN_ITEMS:
            raise ValidationError(f"n_samples must be >= {_MIN_ITEMS}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
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
        file and is ignored; read as core reads every JSON config."""
        _json_object(obj, _CONFIG_KEYS, "sim config")
        try:
            return cls(
                n_classes=_json_value(obj["n_classes"], int, "n_classes"),
                priors=_json_numbers(obj["priors"], "priors"),
                error_rate=_json_value(obj["error_rate"], float, "error_rate"),
                llm_confusion=tuple(_json_numbers(row, "llm_confusion")
                                    for row in _json_value(obj["llm_confusion"], list,
                                                           "llm_confusion")),
                coupling=_json_value(obj.get("coupling", 0.0), float, "coupling"),
                n_samples=_json_value(obj.get("n_samples", 100_000), int, "n_samples"),
                seed=_json_value(obj.get("seed", 0), int, "seed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad sim config: {exc}") from exc


def _json_numbers(value, name: str) -> tuple[float, ...]:
    """A JSON list of numbers as a tuple of floats."""
    return tuple(_json_value(x, float, name) for x in _json_value(value, list, name))


# what a sim config file may hold: the SimConfig fields and an ignored "name"
_CONFIG_KEYS = frozenset(f.name for f in fields(SimConfig)) | {"name"}


def load_sim_config(path) -> SimConfig:
    with _read_json(path) as obj:
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
        return asdict(self)


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
    """One config's result: simulate_many() on a list of one."""
    return simulate_many([cfg])[0]


def simulate_many(cfgs: Sequence[SimConfig]) -> list[SimResult]:
    """The result of every config, in order, each bit for bit its own run's.

    Configs that share (seed, n_samples, n_classes) share their draws, as the
    module docstring says; equal configs share one result.
    """
    by_group: dict[tuple[int, int, int], dict[SimConfig, None]] = {}
    for cfg in cfgs:
        by_group.setdefault((cfg.seed, cfg.n_samples, cfg.n_classes), {})[cfg] = None
    results: dict[SimConfig, SimResult] = {}
    for (seed, n, k), group in by_group.items():
        results.update(_simulate_group(seed, n, k, list(group)))
    return [results[cfg] for cfg in cfgs]


def _simulate_group(seed: int, n: int, k: int,
                    cfgs: list[SimConfig]) -> dict[SimConfig, SimResult]:
    streams = _streams(seed)
    # u holds one stream's uniforms at a time, freed once every label drawn
    # from them is built, so a sweep peaks near one config's memory
    u = streams[0].random(n)
    y = {p: _inverse_cdf(np.asarray(p)[None, :], 0, u) for p in {c.priors: None for c in cfgs}}

    # reference: right w.p. 1 - e, else uniform over the K - 1 other classes;
    # y + offset lies in [1, 2K - 2], so one subtraction of K is the modulus
    u = streams[1].random(n)
    offsets = streams[1].integers(1, k, size=n)
    wrong = {}
    for p in y:
        wrong[p] = y[p] + offsets
        wrong[p] -= k * (wrong[p] >= k)
    ref = {(p, e): np.where(u < e, wrong[p], y[p])
           for p, e in {(c.priors, c.error_rate): None for c in cfgs}}
    del offsets, wrong

    u = streams[2].random(n)
    yhat = {(p, conf): _inverse_cdf(np.asarray(conf), y[p], u)
            for p, conf in {(c.priors, c.llm_confusion): None for c in cfgs}}
    del u

    # each item's cell (y * K + yhat) * K + ref of the count table, per
    # distinct uncoupled draw
    codes = {(p, e, conf): (y[p] * k + yhat[p, conf]) * k + ref[p, e]
             for p, e, conf in {(c.priors, c.error_rate, c.llm_confusion): None for c in cfgs}}
    del y, ref, yhat
    size = k ** 3
    base_counts = {key: np.bincount(c, minlength=size) for key, c in codes.items()}

    if any(c.coupling != 0.0 for c in cfgs):
        u = streams[3].random(n)   # a negative coupling's redraw continues stream 3 from here
    # a positive coupling c moves the items with u < c from their uncoupled
    # cell to the one where the model copies the reference.  One pass per draw
    # counts each item's uncoupled cell in its band, the smallest swept c above
    # its u; the running sum of the bands up to c counts the items c moves.
    swept: dict[tuple, set[float]] = {}
    for cfg in cfgs:
        if cfg.coupling > 0:
            key = (cfg.priors, cfg.error_rate, cfg.llm_confusion)
            swept.setdefault(key, set()).add(cfg.coupling)
    diag = np.arange(k)
    coupled = {}
    for key, cs in swept.items():
        cs = np.array(sorted(cs))
        hit = u < cs[-1]
        band = np.searchsorted(cs, u[hit], side="right") * size
        moved = np.bincount(band + codes[key][hit], minlength=cs.size * size)
        moved = moved.reshape(-1, k, k, k).cumsum(axis=0)   # [c, y, yhat, ref]
        tables = base_counts[key].reshape(k, k, k) - moved
        tables[:, :, diag, diag] += moved.sum(axis=2)        # now yhat = ref
        coupled.update(((key, c), t) for c, t in zip(cs.tolist(), tables))
    out = {}
    for cfg in cfgs:
        key = (cfg.priors, cfg.error_rate, cfg.llm_confusion)
        counts = base_counts[key]
        if cfg.coupling > 0:
            counts = coupled[key, cfg.coupling]
        elif cfg.coupling < 0:
            # the hit items redraw from the confusion row with the reference
            # label zeroed out, each from the next uniform of stream 3
            old = codes[key][u < -cfg.coupling]
            y_hit, ref_hit = old // (k * k), old % k
            new = _inverse_cdf(_redraw_rows(np.asarray(cfg.llm_confusion)),
                               y_hit * k + ref_hit, copy.deepcopy(streams[3]).random(old.size))
            counts = (counts - np.bincount(old, minlength=size)
                      + np.bincount((y_hit * k + new) * k + ref_hit, minlength=size))
        out[cfg] = _estimate(counts.reshape(k, k, k), n, cfg.error_rate)
    return out


def _estimate(counts: np.ndarray, n: int, e: float) -> SimResult:
    """Every estimator off counts[y, yhat, ref]."""
    k = counts.shape[0]
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
    se = _binom_se(reference_agreement, n)
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
        return asdict(self)


def _binom_se(p: float, n: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / n))


def _check_contrast_pair(base_cfg: SimConfig, variant_cfg: SimConfig) -> None:
    """A contrast compares two models against one reference process."""
    if base_cfg.n_classes != variant_cfg.n_classes:
        raise ValidationError("contrast requires matching n_classes")
    if base_cfg.priors != variant_cfg.priors:
        raise ValidationError("contrast requires matching priors")
    if base_cfg.error_rate != variant_cfg.error_rate:
        raise ValidationError("contrast requires a shared reference error_rate")


def contrast(base_cfg: SimConfig, variant_cfg: SimConfig,
             run: Callable[[SimConfig], SimResult] | None = None) -> ContrastReport:
    """Simulate both configs and compare. They must share the reference process.

    `run` maps a config to its result (default: one simulate_many call for
    both); a caller that has already simulated both passes a lookup.
    """
    _check_contrast_pair(base_cfg, variant_cfg)
    if run is None:
        base, variant = simulate_many([base_cfg, variant_cfg])
    else:
        base, variant = run(base_cfg), run(variant_cfg)

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
