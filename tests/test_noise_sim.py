import numpy as np
import pytest

from silicon.core import ValidationError
from silicon.noise_sim import SimConfig, _streams, contrast, simulate


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
