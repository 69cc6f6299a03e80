import math

import numpy as np
import pytest

from silicon import equivalence
from silicon.core import LabelValue, ValidationError
from silicon.equivalence import build_match_matrix, fit_equivalence, MatchMatrix


def S(*indices):
    return LabelValue.of(indices)


def logit(p):
    return math.log(p / (1.0 - p))


def fixture_matrix(baseline="m0"):
    """10 items x 3 models with accuracies 0.5, 0.8, 0.6."""
    matches = np.array([
        [1, 1, 1],
        [0, 1, 0],
        [1, 1, 1],
        [0, 1, 0],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 0],
        [0, 1, 0],
        [1, 1, 1],
        [0, 0, 1],
    ], dtype=float)
    return MatchMatrix(
        items=tuple(f"i{j}" for j in range(10)),
        models=("m0", "m1", "m2"),
        matches=matches,
        baseline_model=baseline,
    )


def sandwich_oracle(matrix, baseline):
    """Explicit-loop clustered covariance at the closed-form MLE.

    The dummy design is saturated, so mu for model j is exactly its accuracy;
    everything below is plain loops, independent of the fitted code.
    """
    models = list(matrix.models)
    others = [m for m in models if m != baseline]
    order = [baseline] + others
    acc = {m: float(np.mean(matrix.matches[:, models.index(m)])) for m in models}
    p = len(order)
    bread_inv = np.zeros((p, p))
    meat = np.zeros((p, p))
    for i in range(len(matrix.items)):
        g = np.zeros(p)
        for col, m in enumerate(order):
            y = matrix.matches[i, models.index(m)]
            mu = acc[m]
            x = np.zeros(p)
            x[0] = 1.0
            if col > 0:
                x[col] = 1.0
            w = mu * (1.0 - mu)
            bread_inv += w * np.outer(x, x)
            g += (y - mu) * x
        meat += np.outer(g, g)
    bread = np.linalg.inv(bread_inv)
    return bread @ meat @ bread


class TestMatchMatrixChecks:
    @pytest.mark.parametrize("change, message", [
        ({"matches": np.ones((3, 2))}, "match matrix shape disagrees with items/models"),
        ({"models": ("m0",), "matches": np.ones((3, 1))}, "need at least 2 models"),
        ({"items": ("i0",), "matches": np.ones((1, 3))}, "need at least 2 items"),
        ({"models": ("m0", "m1", "m0")}, "duplicate model or item names"),
        ({"items": ("i0", "i1", "i0")}, "duplicate model or item names"),
        ({"matches": np.full((3, 3), 0.5)}, "matches must be 0/1"),
        ({"matches": np.full((3, 3), np.nan)}, "matches must be 0/1"),
        ({"baseline_model": "m9"}, "baseline 'm9' not among models"),
    ])
    def test_each_rejection(self, change, message):
        fields = {"items": ("i0", "i1", "i2"), "models": ("m0", "m1", "m2"),
                  "matches": np.eye(3), "baseline_model": "m0"}
        with pytest.raises(ValidationError, match=message):
            MatchMatrix(**{**fields, **change})


class TestBuildMatchMatrix:
    def test_exact_equality_matching(self):
        ref = {"a": S(0), "b": S(1, 2)}
        models = {
            "m0": {"a": S(0), "b": S(1, 2)},
            "m1": {"a": S(1), "b": S(1)},
        }
        m = build_match_matrix(models, ref)
        assert m.items == ("a", "b")
        assert m.matches[:, 0].tolist() == [1.0, 1.0]
        assert m.matches[:, 1].tolist() == [0.0, 0.0]
        assert m.baseline_model == "m0"
        assert m.separation_flag  # both columns are constant

    def test_coverage_gap_is_error(self):
        ref = {"a": S(0), "b": S(1)}
        models = {"m0": {"a": S(0), "b": S(1)}, "m1": {"a": S(0)}}
        with pytest.raises(ValidationError, match="m1"):
            build_match_matrix(models, ref)

    def test_needs_two_models(self):
        with pytest.raises(ValidationError):
            build_match_matrix({"m0": {"a": S(0), "b": S(0)}}, {"a": S(0), "b": S(0)})

    def test_bad_baseline(self):
        ref = {"a": S(0), "b": S(1)}
        models = {"m0": dict(ref), "m1": dict(ref)}
        with pytest.raises(ValidationError, match="baseline"):
            build_match_matrix(models, ref, baseline_model="nope")


class TestPointEstimates:
    def test_closed_form_logits(self):
        rep = fit_equivalence(fixture_matrix())
        assert rep.converged
        assert rep.intercept == pytest.approx(logit(0.5), abs=1e-6)
        by_model = {c.model: c for c in rep.comparisons}
        assert by_model["m1"].coefficient == pytest.approx(
            logit(0.8) - logit(0.5), abs=1e-6)
        assert by_model["m2"].coefficient == pytest.approx(
            logit(0.6) - logit(0.5), abs=1e-6)

    def test_anchor_value(self):
        # baseline accuracy 0.5 vs 0.75 on 20 items: coefficient is log(3)
        matches = np.zeros((20, 2))
        matches[:10, 0] = 1.0
        matches[:15, 1] = 1.0
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(20)),
                        models=("base", "cand"), matches=matches,
                        baseline_model="base")
        rep = fit_equivalence(m)
        assert rep.intercept == pytest.approx(0.0, abs=1e-8)
        assert rep.comparisons[0].coefficient == pytest.approx(
            math.log(3.0), abs=1e-6)

    def test_baseline_switch_permutes_coefficients(self):
        rep0 = fit_equivalence(fixture_matrix("m0"))
        rep1 = fit_equivalence(fixture_matrix("m1"))
        c0 = {c.model: c.coefficient for c in rep0.comparisons}
        c1 = {c.model: c.coefficient for c in rep1.comparisons}
        # alpha'_j = alpha_j - alpha_b
        assert c1["m0"] == pytest.approx(-c0["m1"], abs=1e-6)
        assert c1["m2"] == pytest.approx(c0["m2"] - c0["m1"], abs=1e-6)

    def test_duplicating_items_keeps_estimates(self):
        m = fixture_matrix()
        doubled = MatchMatrix(
            items=m.items + tuple(f"{i}-copy" for i in m.items),
            models=m.models,
            matches=np.vstack([m.matches, m.matches]),
            baseline_model=m.baseline_model,
        )
        rep = fit_equivalence(m)
        rep2 = fit_equivalence(doubled)
        for c, c2 in zip(rep.comparisons, rep2.comparisons):
            assert c2.coefficient == pytest.approx(c.coefficient, abs=1e-9)
            assert c2.se < c.se  # more data, tighter


class TestClusteredErrors:
    def test_matches_bruteforce_sandwich(self):
        m = fixture_matrix()
        rep = fit_equivalence(m)
        cov = sandwich_oracle(m, "m0")
        want = np.sqrt(np.diag(cov))
        assert rep.intercept_se == pytest.approx(want[0], abs=1e-8)
        by_model = {c.model: c for c in rep.comparisons}
        assert by_model["m1"].se == pytest.approx(want[1], abs=1e-8)
        assert by_model["m2"].se == pytest.approx(want[2], abs=1e-8)

    def test_cr1_scales_cr0(self):
        m = fixture_matrix()
        cr0 = fit_equivalence(m, correction="CR0")
        cr1 = fit_equivalence(m, correction="CR1")
        g, n, p = 10, 30, 3
        factor = math.sqrt((g / (g - 1)) * ((n - 1) / (n - p)))
        for c0, c1 in zip(cr0.comparisons, cr1.comparisons):
            assert c1.se == pytest.approx(c0.se * factor, rel=1e-12)

    def test_unknown_correction(self):
        with pytest.raises(ValidationError):
            fit_equivalence(fixture_matrix(), correction="CR9")


class TestLikelihoodRatio:
    def test_baseline_invariance(self):
        stats = [fit_equivalence(fixture_matrix(b)).lr_stat for b in ("m0", "m1", "m2")]
        assert abs(stats[0] - stats[1]) <= 1e-9
        assert abs(stats[0] - stats[2]) <= 1e-9

    def test_lr_oracle(self):
        # binomial log likelihoods at the accuracy MLEs vs the pooled rate
        m = fixture_matrix()
        rep = fit_equivalence(m)

        def ll(p, k, n):
            return k * math.log(p) + (n - k) * math.log(1.0 - p)

        full = ll(0.5, 5, 10) + ll(0.8, 8, 10) + ll(0.6, 6, 10)
        pooled = ll(19 / 30, 19, 30)
        assert rep.lr_stat == pytest.approx(2.0 * (full - pooled), abs=1e-8)
        assert rep.lr_df == 2
        assert 0.0 <= rep.lr_p <= 1.0

    def test_identical_columns_equivalent(self):
        matches = np.array([[1, 1], [0, 0], [1, 1], [0, 0], [1, 1], [1, 1]],
                           dtype=float)
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(6)),
                        models=("a", "b"), matches=matches, baseline_model="a")
        rep = fit_equivalence(m)
        comp = rep.comparisons[0]
        assert comp.coefficient == pytest.approx(0.0, abs=1e-9)
        assert comp.verdict == "equivalent"
        assert rep.lr_stat == pytest.approx(0.0, abs=1e-9)


class TestVerdicts:
    def test_ci_and_verdict_consistency(self):
        rep = fit_equivalence(fixture_matrix())
        for comp in rep.comparisons:
            assert comp.ci_low == pytest.approx(
                comp.coefficient - 1.96 * comp.se, abs=1e-12)
            assert comp.ci_high == pytest.approx(
                comp.coefficient + 1.96 * comp.se, abs=1e-12)
            inside = comp.ci_low <= 0.0 <= comp.ci_high
            assert (comp.verdict == "equivalent") == inside

    def test_clearly_better_model(self):
        matches = np.zeros((40, 2))
        matches[:20, 0] = 1.0   # 0.5
        matches[:39, 1] = 1.0   # 0.975
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(40)),
                        models=("base", "cand"), matches=matches,
                        baseline_model="base")
        rep = fit_equivalence(m)
        assert rep.comparisons[0].verdict == "better"

    def test_tost_flag(self):
        rep = fit_equivalence(fixture_matrix(), tost_margin=10.0)
        by_model = {c.model: c for c in rep.comparisons}
        assert by_model["m2"].tost_equivalent is True
        rep_narrow = fit_equivalence(fixture_matrix(), tost_margin=1e-6)
        assert all(c.tost_equivalent is False for c in rep_narrow.comparisons)
        rep_off = fit_equivalence(fixture_matrix())
        assert all(c.tost_equivalent is None for c in rep_off.comparisons)

    @pytest.mark.parametrize("margin", [0.0, -1.0, float("nan"), float("inf")])
    def test_tost_margin_must_be_positive_and_finite(self, margin):
        with pytest.raises(ValidationError, match="tost_margin must be a positive finite number"):
            fit_equivalence(fixture_matrix(), tost_margin=margin)


class TestSeparation:
    def test_perfect_model_takes_binomial_route(self):
        matches = np.array([
            [1, 1], [0, 1], [1, 1], [0, 1], [1, 1],
            [0, 1], [1, 1], [0, 1], [1, 1], [1, 1],
        ], dtype=float)
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(10)),
                        models=("base", "perfect"), matches=matches,
                        baseline_model="base")
        rep = fit_equivalence(m)
        assert rep.separation_flag
        comp = rep.comparisons[0]
        assert comp.separated
        assert comp.method == "binomial"
        assert comp.coefficient == float("inf")
        assert math.isnan(comp.se)
        assert 0.0 <= comp.ci_low <= comp.ci_high <= 1.0
        # exact binomial CI for 10/10 is (0.692, 1]; baseline 6/10 overlaps it
        assert comp.verdict == "equivalent"

    def test_separated_baseline_skips_regression(self):
        matches = np.array([[1, 1], [1, 0], [1, 1], [1, 0], [1, 1]], dtype=float)
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(5)),
                        models=("allright", "other"), matches=matches,
                        baseline_model="allright")
        rep = fit_equivalence(m)
        assert math.isnan(rep.lr_stat)
        assert rep.comparisons[0].method == "binomial"
        assert rep.comparisons[0].coefficient == float("-inf")

    def test_mixed_fit_plus_fallback(self):
        matches = np.array([
            [1, 1, 1], [0, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
            [0, 0, 1], [1, 1, 1], [0, 1, 1], [1, 1, 1], [0, 0, 1],
        ], dtype=float)
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(10)),
                        models=("m0", "m1", "mperfect"), matches=matches,
                        baseline_model="m0")
        rep = fit_equivalence(m)
        by_model = {c.model: c for c in rep.comparisons}
        assert not by_model["m1"].separated
        assert by_model["mperfect"].separated
        assert rep.lr_df == 1  # only the non-separated pair is in the fit
        assert np.isfinite(rep.lr_stat)


    def test_separated_models_better_and_worse(self):
        """Exact binomial CIs clear the baseline's on either side: 20/20 lies
        above 10/20 (better), 0/20 below it (worse)."""
        matches = np.zeros((20, 3))
        matches[:10, 0] = 1.0
        matches[:, 1] = 1.0
        m = MatchMatrix(items=tuple(f"i{j}" for j in range(20)),
                        models=("base", "perfect", "never"), matches=matches,
                        baseline_model="base")
        rep = fit_equivalence(m)
        by_model = {c.model: c for c in rep.comparisons}
        assert by_model["perfect"].method == by_model["never"].method == "binomial"
        assert by_model["perfect"].verdict == "better"
        assert by_model["never"].verdict == "worse"
        assert math.isnan(rep.lr_stat)  # no fitted model beside the baseline


def irls_with_step_halving(x, y):
    """The fit before full Newton steps, frozen: Newton with step halving on
    the binomial deviance.  Returns (beta, converged, iters)."""
    beta = np.zeros(x.shape[1])
    dev = -2.0 * equivalence._log_likelihood(y, np.full_like(y, 0.5))
    converged = False
    it = 0
    for it in range(1, 101):
        eta = x @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        z = eta + (y - mu) / w
        xtw = x.T * w
        direction = np.linalg.solve(xtw @ x, xtw @ z) - beta
        step = 1.0
        new_dev = dev
        for _ in range(40):
            cand = beta + step * direction
            new_dev = -2.0 * equivalence._log_likelihood(y, 1.0 / (1.0 + np.exp(-(x @ cand))))
            if new_dev <= dev + 1e-14:
                break
            step *= 0.5
        beta = beta + step * direction
        if abs(dev - new_dev) < 1e-10:
            dev = new_dev
            converged = True
            break
        dev = new_dev
    return beta, converged, it


def seeded_design(n, seed):
    """n items x 2-5 models; each model's match odds shift a shared item
    difficulty.  No baseline of the seeds below is separated."""
    from scipy.special import expit

    rng = np.random.default_rng(seed)
    j = rng.integers(2, 6)
    d = rng.normal(rng.uniform(-1, 2), rng.uniform(0.1, 2.5), n)
    matches = [rng.random(n) < expit(d + b) for b in rng.normal(0, 0.5, j)]
    return MatchMatrix(items=tuple(f"i{i}" for i in range(n)),
                       models=tuple(f"m{k}" for k in range(j)),
                       matches=np.array(matches, dtype=float).T, baseline_model="m0")


def cli_fixture_matrix():
    """The match matrix of the CLI's equivalence fixture: 12 items, models
    right on their first 9, 8 and 10 items, the first model the baseline."""
    matches = (np.arange(12)[:, None] < np.array([9, 8, 10])).astype(float)
    return MatchMatrix(items=tuple(f"i{i}" for i in range(12)), models=("m1", "m2", "m3"),
                       matches=matches, baseline_model="m1")


def fitted_design(matrix):
    """The (x, y) that fit_equivalence fits: baseline first, separated models
    left out, observations item-major."""
    fit = [matrix.baseline_model] + [
        m for m in matrix.models
        if m != matrix.baseline_model and 0.0 < matrix.accuracy(m) < 1.0]
    y = matrix.matches[:, [matrix.models.index(m) for m in fit]].reshape(-1)
    x = np.eye(len(fit))[np.arange(y.size) % len(fit)]
    x[:, 0] = 1.0
    return x, y


SEEDED = [(n, seed) for n in (12, 40, 200, 1000) for seed in range(10)]


class TestNewtonFit:
    @pytest.mark.parametrize("n, seed", SEEDED)
    def test_estimates_and_errors_are_those_of_the_closed_form(self, n, seed):
        """The saturated design's MLE is each model's logit; full Newton steps
        land on it (at n=40, seed=2 step halving stopped 2.8e-8 short), and
        the standard errors are the sandwich at the closed-form means."""
        m = seeded_design(n, seed)
        rep = fit_equivalence(m)
        base = m.accuracy(m.baseline_model)
        assert abs(rep.intercept - logit(base)) <= 1e-10
        fitted = [c for c in rep.comparisons if c.method == "wald"]
        for c in fitted:
            assert abs(c.coefficient - (logit(c.accuracy) - logit(base))) <= 1e-10
        models = (m.baseline_model, *(c.model for c in fitted))
        sub = MatchMatrix(m.items, models, m.matches[:, [m.models.index(k) for k in models]],
                          m.baseline_model)
        want = np.sqrt(np.diag(sandwich_oracle(sub, m.baseline_model)))
        assert [rep.intercept_se] + [c.se for c in fitted] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n, seed", SEEDED)
    def test_iterations_and_convergence_are_those_of_step_halving(self, n, seed):
        m = seeded_design(n, seed)
        _, converged, n_iter = irls_with_step_halving(*fitted_design(m))
        rep = fit_equivalence(m)
        assert (rep.n_iter, rep.converged) == (n_iter, converged)

    def test_cli_fixture_iterations_are_those_of_step_halving(self):
        m = cli_fixture_matrix()
        _, converged, n_iter = irls_with_step_halving(*fitted_design(m))
        rep = fit_equivalence(m)
        assert converged and rep.converged
        assert rep.n_iter == n_iter
        assert rep.intercept == pytest.approx(logit(0.75), abs=1e-10)


def test_equal_accuracies_give_lr_p_one_when_the_statistic_rounds_negative():
    """Three models with 7/12 matches each: the LR statistic is 0 up to
    rounding, here a little below it, and the p-value is 1 as chi2.sf gives."""
    matches = np.array([[1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
                        [0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1],
                        [0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1]]).T
    rep = fit_equivalence(MatchMatrix(tuple(f"i{i}" for i in range(12)), ("a", "b", "c"),
                                      matches, "a"))
    assert -1e-12 < rep.lr_stat < 0.0
    assert rep.lr_p == 1.0

def test_special_functions_equal_the_scipy_stats_calls_they_replace():
    """equivalence uses scipy.special directly; each call must give the bits
    the scipy.stats distribution method gave, boundaries included, and the
    one constant that replaces a call must give that call's bits."""
    from scipy import special, stats

    rng = np.random.default_rng(20261018)

    def same(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # beta quantiles at the exact CI's arguments: a, b >= 1 integers, tail levels
    a = np.concatenate([rng.integers(1, 5000, 3000), [1, 1, 2, 4999, 1]]).astype(float)
    b = np.concatenate([rng.integers(1, 5000, 3000), [1, 4999, 1, 1, 2]]).astype(float)
    for q in (0.025, 0.975, 0.005, 0.995, 0.0, 1.0, 0.5):
        same(special.betaincinv(a, b, q), stats.beta.ppf(q, a, b))
    q = rng.random(3005)
    same(special.betaincinv(a, b, q), stats.beta.ppf(q, a, b))
    # chi-square upper tail of the likelihood-ratio test; chdtrc is nan below 0,
    # so the statistic is clipped there (a rounding-negative LR statistic)
    x = np.concatenate([rng.exponential(5.0, 3000),
                        [0.0, -0.0, -1e-12, -3.0, 1e-300, 1e3, np.inf, np.nan]])
    for df in (1, 2, 3, 7, 30):
        same(special.chdtrc(df, np.maximum(x, 0.0)), stats.chi2.sf(x, df))
    # two-sided Wald p and the one-sided TOST critical value
    z = np.concatenate([rng.normal(0.0, 4.0, 3000), [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf]])
    same(special.ndtr(-np.abs(z)), stats.norm.sf(np.abs(z)))
    p = np.concatenate([rng.random(3000), [0.95, 0.5, 1e-300, 1.0 - 1e-16, 0.0, 1.0]])
    same(special.ndtri(p), stats.norm.ppf(p))
    # the TOST critical value is a constant, the bits of the call it replaces
    same(equivalence._Z_ONE_SIDED_95, special.ndtri(0.95))


def modules_loaded_by_cli_import(prefixes):
    """The loaded modules named by one of prefixes after `import silicon.cli` in a
    fresh interpreter."""
    import os
    import subprocess
    import sys

    code = (f"import sys, silicon.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """No scipy module at all: only equivalence loads scipy.special, on first use."""
    assert modules_loaded_by_cli_import(["scipy"]) == "[]"


def test_importing_the_cli_leaves_requests_and_urllib3_unloaded():
    assert modules_loaded_by_cli_import(["requests", "urllib3"]) == "[]"
