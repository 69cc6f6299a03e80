import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from silicon.core import ValidationError
from silicon.noise_sim import (
    SimConfig,
    SimResult,
    _inverse_cdf,
    _streams,
    contrast,
    simulate,
    simulate_many,
)


def uniform_cfg(k=4, e=0.2, coupling=0.0, n=100_000, seed=0, diag=0.7):
    off = (1.0 - diag) / (k - 1)
    conf = tuple(
        tuple(diag if i == j else off for j in range(k)) for i in range(k)
    )
    return SimConfig(
        n_classes=k,
        priors=tuple(1.0 / k for _ in range(k)),
        error_rate=e,
        llm_confusion=conf,
        coupling=coupling,
        n_samples=n,
        seed=seed,
    )


class TestValidation:
    def test_bad_priors(self):
        with pytest.raises(ValidationError, match="simplex"):
            SimConfig(n_classes=2, priors=(0.6, 0.6), error_rate=0.1,
                      llm_confusion=((1, 0), (0, 1)))

    def test_bad_rows(self):
        with pytest.raises(ValidationError, match="stochastic"):
            SimConfig(n_classes=2, priors=(0.5, 0.5), error_rate=0.1,
                      llm_confusion=((0.9, 0.2), (0, 1)))

    def test_simplex_tolerance_accepts_tiny_drift(self):
        third = 1.0 / 3.0
        SimConfig(n_classes=3, priors=(third, third, third), error_rate=0.0,
                  llm_confusion=((third, third, third),) * 3, n_samples=100)

    def test_small_n(self):
        with pytest.raises(ValidationError, match="n_samples"):
            SimConfig(n_classes=2, priors=(0.5, 0.5), error_rate=0.1,
                      llm_confusion=((1, 0), (0, 1)), n_samples=99)

    def test_coupling_range(self):
        with pytest.raises(ValidationError, match="coupling"):
            uniform_cfg(coupling=1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            SimConfig(n_classes=3, priors=(0.5, 0.5), error_rate=0.1,
                      llm_confusion=((1, 0), (0, 1)))


class TestConstants:
    def test_slope_and_chance_rate(self):
        r = simulate(uniform_cfg(k=4, e=0.2, n=100))
        assert abs(r.slope - 11.0 / 15.0) <= 1e-15
        assert abs(r.chance_rate - 1.0 / 15.0) <= 1e-15

    def test_zero_error_collapses_to_truth(self):
        r = simulate(uniform_cfg(k=3, e=0.0, n=20_000, seed=5))
        assert r.slope == 1.0
        assert r.chance_rate == 0.0
        assert r.reference_agreement == r.truth_agreement
        assert r.identity_residual == 0.0


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**63 + 5])
    def test_streams_are_the_spawned_philox_streams(self, seed):
        # stream k is Philox keyed by SeedSequence(entropy=seed, spawn_key=(k,))
        streams = _streams(seed)
        assert len(streams) == 4
        for k, got in enumerate(streams):
            want = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(k,))))
            assert np.array_equal(got.random(64), want.random(64))
            assert np.array_equal(got.integers(0, 1000, 64), want.integers(0, 1000, 64))


class TestSimulate:
    def test_reproducible_and_seed_sensitive(self):
        a = simulate(uniform_cfg(seed=11, n=5000))
        b = simulate(uniform_cfg(seed=11, n=5000))
        c = simulate(uniform_cfg(seed=12, n=5000))
        assert a == b
        assert a != c

    def test_truth_agreement_matches_analytic(self):
        # with coupling 0 the analytic hit rate is sum_k pi_k p_kk
        cfg = uniform_cfg(k=3, e=0.1, n=100_000, seed=21, diag=0.8)
        r = simulate(cfg)
        se = np.sqrt(0.8 * 0.2 / cfg.n_samples)
        assert abs(r.truth_agreement - 0.8) <= 4 * se
        assert r.measurement_error == 1.0 - r.truth_agreement

    def test_identity_residual_small_on_grid(self):
        for k in (2, 4):
            for e in (0.1, 0.3):
                for coupling in (-0.3, 0.0, 0.5):
                    r = simulate(uniform_cfg(k=k, e=e, coupling=coupling, seed=7))
                    assert r.identity_residual <= 4 * r.std_error, (k, e, coupling)

    def test_positive_coupling_inflates_reference_agreement(self):
        # diagonal matches the reference hit rate (1 - e), so copying the
        # reference's draw shifts co-labeling but not accuracy
        base = simulate(uniform_cfg(e=0.2, diag=0.8, seed=3))
        high = simulate(uniform_cfg(e=0.2, diag=0.8, coupling=0.5, seed=3))
        noise = 4 * np.hypot(base.std_error, high.std_error)
        assert high.reference_agreement > base.reference_agreement + noise
        se_t = np.sqrt(0.25 / base.n_samples)
        assert abs(high.truth_agreement - base.truth_agreement) <= 4 * se_t

    def test_negative_coupling_deflates_reference_agreement(self):
        base = simulate(uniform_cfg(seed=3))
        low = simulate(uniform_cfg(coupling=-0.5, seed=3))
        noise = 4 * np.hypot(base.std_error, low.std_error)
        assert low.reference_agreement < base.reference_agreement - noise


class TestContrast:
    def test_same_config_same_seed_is_exactly_zero(self):
        rep = contrast(uniform_cfg(seed=9, n=5000), uniform_cfg(seed=9, n=5000))
        assert rep.delta_reference_agreement == 0.0
        assert rep.delta_truth_agreement == 0.0
        assert rep.delta_co_label_term == 0.0
        assert not rep.reference_gain
        assert not rep.error_reduced
        assert not rep.error_increased
        assert rep.identity_consistent

    def test_diagonal_improvement_reduces_error(self):
        base = uniform_cfg(k=3, e=0.2, seed=31, diag=0.7)
        better = uniform_cfg(k=3, e=0.2, seed=32, diag=0.8)
        rep = contrast(base, better)
        # analytic truth agreement: 0.7 -> 0.8
        assert rep.delta_truth_agreement == pytest.approx(0.1, abs=0.02)
        assert rep.error_reduced
        assert not rep.error_increased
        assert rep.reference_gain
        assert rep.identity_consistent

    def test_coupling_only_change_is_no_real_gain(self):
        # accuracy-neutral coupling: diagonal equals 1 - e
        base = uniform_cfg(k=4, e=0.2, diag=0.8, seed=41, coupling=0.0)
        coupled = uniform_cfg(k=4, e=0.2, diag=0.8, seed=42, coupling=0.5)
        rep = contrast(base, coupled)
        assert rep.reference_gain
        assert rep.delta_co_label_term > 0.0
        assert not rep.error_reduced

    def test_requires_shared_reference(self):
        with pytest.raises(ValidationError):
            contrast(uniform_cfg(e=0.1, n=100), uniform_cfg(e=0.2, n=100))
        with pytest.raises(ValidationError):
            contrast(uniform_cfg(k=2, n=100), uniform_cfg(k=3, n=100))


# --------------------------------------------------------------------- oracle
# A frozen copy of the simulator as first written: per-item cumsum/argmax
# draws and per-class masked estimators.  simulate() must reproduce it bit for
# bit, so every field is compared with ==.

def _oracle_draw_rows(rows, picks, u):
    cum = np.cumsum(rows[picks], axis=1)
    cum[:, -1] = 1.0
    return (u[:, None] < cum).argmax(axis=1)


def oracle_simulate(cfg: SimConfig) -> SimResult:
    k = cfg.n_classes
    n = cfg.n_samples
    e = cfg.error_rate
    streams = _streams(cfg.seed)
    priors = np.asarray(cfg.priors)
    conf = np.asarray(cfg.llm_confusion)

    y = _oracle_draw_rows(priors[None, :], np.zeros(n, dtype=int), streams[0].random(n))
    wrong = streams[1].random(n) < e
    offsets = streams[1].integers(1, k, size=n)
    ref = np.where(wrong, (y + offsets) % k, y)
    yhat = _oracle_draw_rows(conf, y, streams[2].random(n))

    if cfg.coupling != 0.0:
        hit = np.flatnonzero(streams[3].random(n) < abs(cfg.coupling))
        if cfg.coupling > 0:
            yhat[hit] = ref[hit]
        elif hit.size:
            rows = conf[y[hit]].copy()
            rows[np.arange(hit.size), ref[hit]] = 0.0
            dead = rows.sum(axis=1) <= 0.0
            if dead.any():
                rows[dead] = 1.0
                rows[np.flatnonzero(dead), ref[hit][dead]] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
            yhat[hit] = _oracle_draw_rows(rows, np.arange(hit.size),
                                          streams[3].random(hit.size))

    truth_agreement = float(np.mean(yhat == y))
    reference_agreement = float(np.mean(yhat == ref))
    co = 0.0
    for c in range(k):
        mask = y == c
        nk = int(mask.sum())
        if nk == 0:
            continue
        joint = np.bincount(yhat[mask][yhat[mask] == ref[mask]], minlength=k) / nk
        p_hat = np.bincount(yhat[mask], minlength=k) / nk
        q_hat = np.bincount(ref[mask], minlength=k) / nk
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


def _kernel_cfg(k, e, coupling, seed):
    rng = np.random.default_rng(seed)
    rows = [tuple(float(x) for x in r) for r in rng.dirichlet(np.ones(k), size=k)]
    rows[0] = tuple(float(j == k - 1) for j in range(k))   # point mass: dead-row fallback
    # within the simplex tolerance, this cumsum passes 1.0 before its last entry
    rows[-1] = (0.5, 0.5 + 1e-13) + (0.0,) * (k - 2)
    return SimConfig(
        n_classes=k,
        priors=tuple(float(x) for x in rng.dirichlet(np.ones(k))),
        error_rate=e,
        llm_confusion=tuple(rows),
        coupling=coupling,
        n_samples=100,
        seed=seed,
    )


class TestKernelOracle:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("e", [0.0, 1.0])
    @pytest.mark.parametrize("coupling", [-1.0, -0.4, 0.0, 0.3, 1.0])
    def test_bit_equal_to_oracle(self, k, e, coupling):
        for seed in range(4):
            cfg = _kernel_cfg(k, e, coupling, seed)
            assert simulate(cfg) == oracle_simulate(cfg), seed

    def test_draws_at_cdf_boundaries(self):
        # uniforms landing exactly on, just below and just above every cumsum
        # entry, on rows that sum to 1 exactly, short of it, and past it early
        rows = np.array([[0.25, 0.25, 0.5],
                         [0.1, 0.2, 0.7 - 1e-13],
                         [0.5, 0.5 + 1e-13, 0.0]])
        edges = np.unique(np.cumsum(rows, axis=1))
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        u = u[u < 1.0]
        for r in range(len(rows)):
            which = np.full(u.size, r)
            want = _oracle_draw_rows(rows, which, u)
            assert np.array_equal(_inverse_cdf(rows, which, u), want), r
            assert np.array_equal(_inverse_cdf(rows[r:r + 1], 0, u), want), r

    def test_overshooting_cumsum(self):
        row = (0.25, 0.75 + 1e-13, 0.0, 0.0)
        assert np.cumsum(row)[1] > 1.0
        cfg = SimConfig(n_classes=4, priors=row, error_rate=0.3,
                        llm_confusion=(row,) * 4, coupling=-0.4, n_samples=5000, seed=3)
        assert simulate(cfg) == oracle_simulate(cfg)

    @pytest.mark.parametrize("coupling", [-1.0, -0.4, 0.3])
    def test_bit_equal_at_benchmark_size(self, coupling):
        cfg = uniform_cfg(k=3, e=0.15, coupling=coupling, n=100_000, seed=17, diag=0.75)
        assert simulate(cfg) == oracle_simulate(cfg)


class TestSimulateMany:
    def test_bit_equal_to_oracle_on_a_mixed_grid(self):
        cfgs = []
        for seed in (1, 2):
            for n in (100, 2500):
                base = replace(_kernel_cfg(4, 0.2, 0.0, 7), seed=seed, n_samples=n)
                other_priors = replace(base, priors=(0.4, 0.3, 0.2, 0.1))
                other_conf = replace(base, llm_confusion=uniform_cfg(k=4).llm_confusion)
                for cfg in (base, other_priors, other_conf):
                    cfgs += [replace(cfg, coupling=c) for c in (0.0, 0.3, -0.3, 1.0, -1.0)]
                    cfgs += [replace(cfg, error_rate=e, coupling=-0.3) for e in (0.0, 0.1, 1.0)]
        cfgs += cfgs[::7]   # duplicates, out of order
        got = simulate_many(cfgs)
        assert len(got) == len(cfgs)
        for cfg, result in zip(cfgs, got):
            assert result == oracle_simulate(cfg), cfg

    def test_single_config_and_empty_list(self):
        cfg = uniform_cfg(coupling=-0.4, n=1000, seed=2)
        assert simulate_many([cfg]) == [simulate(cfg)] == [oracle_simulate(cfg)]
        assert simulate_many([]) == []

    def test_sweep_peak_memory_near_one_simulate(self):
        base = uniform_cfg(k=3, e=0.15, n=1_000_000, seed=17, diag=0.75)
        sweep = [replace(base, coupling=c) for c in (0.0, 0.1, -0.2, 0.3, -0.4, 0.5)]

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: simulate(sweep[-2]))
        assert peak(lambda: simulate_many(sweep)) <= 1.25 * one


class TestContrastReuse:
    def test_default_run_is_one_kernel_call(self, monkeypatch):
        import silicon.noise_sim as noise_sim

        base, variant = uniform_cfg(n=1000, seed=4), uniform_cfg(n=1000, seed=4, coupling=0.3)
        calls = []
        real = noise_sim.simulate_many

        def counting(cfgs):
            calls.append(list(cfgs))
            return real(cfgs)

        monkeypatch.setattr(noise_sim, "simulate_many", counting)
        report = contrast(base, variant)
        assert calls == [[base, variant]]
        assert (report.base, report.variant) == (oracle_simulate(base), oracle_simulate(variant))

    def test_run_lookup_is_used_for_both_configs(self):
        base, variant = uniform_cfg(n=1000, seed=4), uniform_cfg(n=1000, seed=4, coupling=0.3)
        seen = []

        def run(cfg):
            seen.append(cfg)
            return simulate(cfg)

        assert contrast(base, variant, run=run) == contrast(base, variant)
        assert seen == [base, variant]

    def test_mismatch_rejected_before_simulating(self):
        def run(cfg):
            raise AssertionError("simulated a config that cannot be contrasted")

        with pytest.raises(ValidationError):
            contrast(uniform_cfg(e=0.1, n=100), uniform_cfg(e=0.2, n=100), run=run)


class TestConfigKeys:
    def test_to_json_round_trips_and_name_is_ignored(self):
        cfg = uniform_cfg(k=3, coupling=0.25, n=500, seed=9)
        assert SimConfig.from_json(cfg.to_json()) == cfg
        assert SimConfig.from_json({**cfg.to_json(), "name": "base.json"}) == cfg

    def test_misspelt_key_is_rejected(self):
        obj = {**uniform_cfg(k=3).to_json(), "couplng": 0.5}
        del obj["coupling"]
        with pytest.raises(ValidationError, match=r"unknown keys \['couplng'\]"):
            SimConfig.from_json(obj)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.9), ("seed", True), ("seed", 1.0), ("seed", "1"),
        ("n_samples", "500"), ("n_samples", 500.7), ("n_samples", False),
        ("n_classes", 3.0), ("n_classes", True),
        ("coupling", True), ("coupling", "0.1"), ("coupling", None),
        ("error_rate", "0.1"), ("error_rate", False),
        ("priors", ["0.5", 0.25, 0.25]), ("priors", [True, 0.0, 0.0]),
        ("llm_confusion", [[1, 0, 0], [0, True, 0], [0, 0, 1]]),
        ("llm_confusion", [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]),
    ])
    def test_numbers_are_not_coerced(self, field, value):
        obj = {**uniform_cfg(k=3, n=500).to_json(), field: value}
        with pytest.raises(ValidationError, match=f"bad sim config: {field} must be"):
            SimConfig.from_json(obj)

    def test_json_integers_are_numbers(self):
        obj = {**uniform_cfg(k=3, n=500).to_json(), "coupling": 0, "error_rate": 1,
               "priors": [1, 0, 0], "llm_confusion": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        cfg = SimConfig.from_json(obj)
        assert (cfg.coupling, cfg.error_rate, cfg.priors) == (0.0, 1.0, (1.0, 0.0, 0.0))
        assert all(type(x) is float for row in cfg.llm_confusion for x in row)

    def test_non_object_is_rejected(self):
        with pytest.raises(ValidationError, match="bad sim config"):
            SimConfig.from_json([["n_classes", 3]])
