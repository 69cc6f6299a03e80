import numpy as np
import pytest

from silicon.confidence import fsd_from_probabilities, fsd_from_samples
from silicon.core import LabelValue, ValidationError


def S(*indices):
    return LabelValue.of(indices)


class TestSamplingRoute:
    def test_unanimous(self):
        score = fsd_from_samples([S(0)] * 5)
        assert score.fsd == 1.0
        assert score.top_label == S(0)
        assert score.second_label is None
        assert score.n_samples == 5

    def test_tied_mode(self):
        score = fsd_from_samples([S(0), S(0), S(1), S(1), S(2)])
        assert score.fsd == 0.0
        assert score.top_label == S(0)

    def test_margin(self):
        score = fsd_from_samples([S(0), S(0), S(0), S(1), S(2)])
        assert score.fsd == pytest.approx(0.4, abs=0)
        assert score.second_label == S(1)

    def test_counts_oracle_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            samples = [S(int(x)) for x in rng.integers(0, 4, size=n)]
            score = fsd_from_samples(samples)
            tallies = sorted(
                (sum(1 for s in samples if s == lab) for lab in set(samples)),
                reverse=True,
            )
            second = tallies[1] if len(tallies) > 1 else 0
            assert score.fsd == pytest.approx((tallies[0] - second) / n, abs=1e-15)
            assert 0.0 <= score.fsd <= 1.0

    def test_order_invariance(self):
        samples = [S(0), S(1), S(0), S(2), S(0)]
        rng = np.random.default_rng(3)
        base = fsd_from_samples(samples)
        for _ in range(10):
            perm = [samples[i] for i in rng.permutation(len(samples))]
            assert fsd_from_samples(perm) == base

    def test_set_valued_samples(self):
        score = fsd_from_samples([S(0, 1), S(0, 1), S(0), S(0, 1), S(1)])
        assert score.top_label == S(0, 1)
        assert score.fsd == pytest.approx(2 / 5, abs=0)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            fsd_from_samples([S(0)])


class TestProbabilityRoute:
    def test_plain_margin(self):
        score = fsd_from_probabilities({S(0): 0.6, S(1): 0.4})
        assert score.fsd == pytest.approx(0.2, abs=1e-15)
        assert score.method == "probability"
        assert score.n_samples == 0

    def test_two_option_law(self):
        for p in np.linspace(0.0, 1.0, 41):
            score = fsd_from_probabilities({S(0): float(p), S(1): float(1.0 - p)})
            assert score.fsd == pytest.approx(abs(2 * p - 1), abs=1e-12)

    def test_renormalizes_truncated_mass(self):
        score = fsd_from_probabilities({S(0): 0.3, S(1): 0.2})
        assert score.fsd == pytest.approx((0.3 - 0.2) / 0.5, abs=1e-12)

    def test_top_labels_ranked(self):
        score = fsd_from_probabilities({S(0): 0.1, S(1): 0.7, S(2): 0.2})
        assert score.top_label == S(1)
        assert score.second_label == S(2)

    def test_errors(self):
        with pytest.raises(ValidationError):
            fsd_from_probabilities({S(0): 1.0})
        with pytest.raises(ValidationError):
            fsd_from_probabilities({S(0): 0.8, S(1): 0.4})
        with pytest.raises(ValidationError):
            fsd_from_probabilities({S(0): -0.1, S(1): 0.5})
        with pytest.raises(ValidationError):
            fsd_from_probabilities({S(0): 0.0, S(1): 0.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_probability_is_rejected(self, bad):
        for probs in ({S(0): bad, S(1): 0.2}, {S(0): 0.2, S(1): bad}):
            with pytest.raises(ValidationError, match="finite and non-negative"):
                fsd_from_probabilities(probs)
