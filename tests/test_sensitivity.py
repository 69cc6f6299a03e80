import numpy as np
import pytest

import silicon.sensitivity as sensitivity
from silicon.core import LabelValue, TaskKind, ValidationError
from silicon.sensitivity import MixConfig, _replicate_seed, mix_baseline, sensitivity_curve
from kappa_oracle import old_cohen_kappa, old_kappa_for_kind


def S(i):
    return LabelValue.single(i)


def make_maps(n=40, seed=0):
    rng = np.random.default_rng(seed)
    items = [f"i{j}" for j in range(n)]
    expert = {i: S(int(x)) for i, x in zip(items, rng.integers(0, 3, n))}
    # crowd mostly copies the expert with some disagreement, llm in between
    crowd = {
        i: (expert[i] if rng.random() < 0.6 else S(int(rng.integers(0, 3))))
        for i in items
    }
    llm = {
        i: (expert[i] if rng.random() < 0.75 else S(int(rng.integers(0, 3))))
        for i in items
    }
    return llm, expert, crowd, items


class TestMixBaseline:
    def test_swap_count_rounds_half_to_even(self):
        expert = {f"i{j}": S(0) for j in range(10)}
        crowd = {f"i{j}": S(1) for j in range(10)}
        for alpha, want in ((0.0, 0), (0.25, 2), (0.05, 0), (0.15, 2), (0.5, 5), (1.0, 10)):
            mixed = mix_baseline(expert, crowd, alpha, seed=3)
            swapped = sum(1 for i in expert if mixed[i] == S(1))
            mixed = mix_baseline(expert, crowd, alpha, seed=9)
            assert sum(1 for i in expert if mixed[i] == S(1)) == swapped == want, alpha

    def test_seeded_and_reproducible(self):
        expert = {f"i{j}": S(0) for j in range(20)}
        crowd = {f"i{j}": S(1) for j in range(20)}
        a = mix_baseline(expert, crowd, 0.5, seed=7)
        b = mix_baseline(expert, crowd, 0.5, seed=7)
        c = mix_baseline(expert, crowd, 0.5, seed=8)
        assert a == b
        assert a != c

    def test_requires_crowd_coverage(self):
        with pytest.raises(ValidationError, match="missing"):
            mix_baseline({"a": S(0)}, {}, 0.5, seed=0)

    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            mix_baseline({"a": S(0)}, {"a": S(1)}, 1.2, seed=0)

    def test_empty_reference(self):
        with pytest.raises(ValidationError, match="empty reference"):
            mix_baseline({}, {"a": S(1)}, 0.5, seed=0)

    def test_int_and_str_item_ids(self):
        labels = {1: S(0), "x": S(1), 2: S(0)}
        with pytest.raises(ValidationError, match="item ids mix int and str"):
            mix_baseline(labels, labels, 0.5, seed=0)


class TestMixConfig:
    @pytest.mark.parametrize("change, message", [
        ({"alphas": ()}, "no alphas given"),
        ({"alphas": (0.5, 1.5)}, r"alphas must lie in \[0, 1\]"),
        ({"alphas": (-0.25,)}, r"alphas must lie in \[0, 1\]"),
        ({"alphas": (float("nan"),)}, r"alphas must lie in \[0, 1\]"),
        ({"replicates": 0}, "replicates must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_each_field_check(self, change, message):
        with pytest.raises(ValidationError, match=message):
            MixConfig(**{"alphas": (0.0, 1.0), **change})


class TestSensitivityCurve:
    def test_endpoints(self):
        llm, expert, crowd, items = make_maps()
        cfg = MixConfig(alphas=(0.0, 0.5, 1.0), replicates=5, seed=13)
        curve = sensitivity_curve(llm, expert, crowd, cfg, TaskKind.MULTICLASS)
        assert curve[0].mean_gap == 0.0
        assert curve[0].lo == curve[0].hi == 0.0

        kappa_e = old_cohen_kappa([llm[i] for i in items], [expert[i] for i in items]).kappa
        kappa_c = old_cohen_kappa([llm[i] for i in items], [crowd[i] for i in items]).kappa
        assert curve[-1].mean_gap == abs(kappa_e - kappa_c)
        assert curve[-1].lo == curve[-1].hi == curve[-1].mean_gap

    def test_endpoints_seed_independent(self):
        llm, expert, crowd, _ = make_maps()
        cfg_a = MixConfig(alphas=(0.0, 1.0), replicates=3, seed=1)
        cfg_b = MixConfig(alphas=(0.0, 1.0), replicates=3, seed=999)
        curve_a = sensitivity_curve(llm, expert, crowd, cfg_a, TaskKind.MULTICLASS)
        curve_b = sensitivity_curve(llm, expert, crowd, cfg_b, TaskKind.MULTICLASS)
        assert curve_a[0].mean_gap == curve_b[0].mean_gap == 0.0
        assert curve_a[1].mean_gap == curve_b[1].mean_gap

    def test_interior_bit_reproducible(self):
        llm, expert, crowd, _ = make_maps()
        cfg = MixConfig(alphas=(0.25, 0.5, 0.75), replicates=8, seed=21)
        one = sensitivity_curve(llm, expert, crowd, cfg, TaskKind.MULTICLASS)
        two = sensitivity_curve(llm, expert, crowd, cfg, TaskKind.MULTICLASS)
        assert one == two
        other = sensitivity_curve(
            llm, expert, crowd,
            MixConfig(alphas=(0.25, 0.5, 0.75), replicates=8, seed=22),
            TaskKind.MULTICLASS,
        )
        assert any(a.gaps != b.gaps for a, b in zip(one, other))

    def test_gap_bounds_and_replicate_stats(self):
        llm, expert, crowd, _ = make_maps(seed=5)
        cfg = MixConfig(alphas=(0.3, 0.6), replicates=10, seed=2)
        for point in sensitivity_curve(llm, expert, crowd, cfg, TaskKind.MULTICLASS):
            assert len(point.gaps) == 10
            assert point.lo == min(point.gaps)
            assert point.hi == max(point.gaps)
            assert point.lo <= point.mean_gap <= point.hi

    def test_needs_shared_items(self):
        with pytest.raises(ValidationError):
            sensitivity_curve({"a": S(0)}, {"b": S(0)}, {"b": S(0)},
                              MixConfig(alphas=(0.5,)), TaskKind.MULTICLASS)

    def test_negative_seed_is_rejected(self):
        """Every seeded generator takes a seed >= 0; numpy's ValueError is not bad input."""
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            MixConfig(alphas=(0.5,), seed=-1)


def curve_oracle(llm, expert, crowd, cfg, kind):
    """Per-replicate gaps the direct way: mix_baseline, then the frozen
    label-list kappa on the mixed labels."""
    items = sorted(set(llm) & set(expert))
    expert_common = {i: expert[i] for i in items}
    llm_labels = [llm[i] for i in items]
    kappa_ref = old_kappa_for_kind(llm_labels, [expert[i] for i in items], kind).kappa
    gaps = []
    for a_idx, alpha in enumerate(cfg.alphas):
        row = []
        for rep in range(cfg.replicates):
            mixed = mix_baseline(expert_common, crowd, alpha, _replicate_seed(cfg.seed, a_idx, rep))
            row.append(abs(kappa_ref - old_kappa_for_kind(
                llm_labels, [mixed[i] for i in items], kind).kappa))
        gaps.append(tuple(row))
    return gaps


def make_set_maps(n=60, seed=0):
    """llm and expert use subsets of categories 0-3; the crowd also uses 4 and 5."""
    rng = np.random.default_rng(seed)
    items = [f"i{j}" for j in range(n)]

    def draw(k):
        return LabelValue.of(rng.choice(k, size=int(rng.integers(1, 4)), replace=False))

    expert = {i: draw(4) for i in items}
    crowd = {i: (expert[i] if rng.random() < 0.5 else draw(6)) for i in items}
    llm = {i: (expert[i] if rng.random() < 0.6 else draw(4)) for i in items}
    return llm, expert, crowd, items


def three_items():
    llm = {"a": S(0), "b": S(1), "c": S(2)}
    expert = {"a": S(0), "b": S(1), "c": S(1)}
    crowd = {"a": S(2), "b": S(0), "c": S(2)}  # every crowd label differs from the expert one
    return llm, expert, crowd


class TestCurveMatchesDirectOracle:
    CFG = MixConfig(alphas=(0.0, 0.1, 0.35, 0.5, 0.9, 1.0), replicates=6, seed=4)

    def check(self, llm, expert, crowd, kind, cfg=CFG):
        curve = sensitivity_curve(llm, expert, crowd, cfg, kind)
        want = curve_oracle(llm, expert, crowd, cfg, kind)
        assert [point.gaps for point in curve] == want
        for point, gaps in zip(curve, want):
            assert (point.mean_gap, point.lo, point.hi) == (
                float(np.mean(gaps)), float(np.min(gaps)), float(np.max(gaps)))

    def test_single_label_with_crowd_only_categories(self):
        llm, expert, crowd, items = make_maps(n=50, seed=8)
        rng = np.random.default_rng(1)
        for i in items[::4]:
            crowd[i] = S(int(rng.integers(3, 5)))   # categories neither llm nor expert uses
        llm["only-llm"] = S(0)                      # outside the shared items
        crowd["only-crowd"] = S(4)
        self.check(llm, expert, crowd, TaskKind.MULTICLASS)

    def test_multilabel_with_crowd_only_sets(self):
        for seed in range(3):
            llm, expert, crowd, _ = make_set_maps(seed=seed)
            self.check(llm, expert, crowd, TaskKind.MULTILABEL)

    def test_reference_on_one_category_takes_degenerate_path(self):
        items = [f"i{j}" for j in range(30)]
        for kind, one, other in ((TaskKind.MULTICLASS, S(0), S(1)),
                                 (TaskKind.MULTILABEL, LabelValue.of([0, 2]), LabelValue.of([2]))):
            llm = {i: one for i in items}
            expert = {i: one for i in items}
            crowd = {i: (other if j % 10 == 0 else one) for j, i in enumerate(items)}
            assert old_kappa_for_kind(list(llm.values()), list(expert.values()), kind).degenerate
            self.check(llm, expert, crowd, kind)

    def test_crowd_labels_missing(self):
        llm, expert, crowd, items = make_maps()
        del crowd[items[3]]
        with pytest.raises(ValidationError, match="crowd labels missing"):
            sensitivity_curve(llm, expert, crowd, self.CFG, TaskKind.MULTICLASS)
        # a bad llm label is reported before the missing crowd item
        llm[items[5]] = LabelValue.of([0, 1])
        with pytest.raises(ValidationError, match="single labels"):
            sensitivity_curve(llm, expert, crowd, self.CFG, TaskKind.MULTICLASS)

    def test_crowd_set_label_rejected_for_single_label_kind_once_mixed_in(self):
        llm, expert, crowd, items = make_maps()
        crowd[items[0]] = LabelValue.of([0, 1])
        only_zero = MixConfig(alphas=(0.0,), replicates=2, seed=0)
        assert sensitivity_curve(llm, expert, crowd, only_zero, TaskKind.MULTICLASS)[0].mean_gap == 0.0
        with pytest.raises(ValidationError, match="single labels"):
            sensitivity_curve(llm, expert, crowd, MixConfig(alphas=(1.0,)), TaskKind.MULTICLASS)


    # an alpha whose swap count round(alpha * n) is 0 or n is scored once for all its replicates
    @pytest.mark.parametrize("maps, kind, cfg", [
        pytest.param(lambda: three_items(), TaskKind.MULTICLASS,
                     MixConfig(alphas=(0.1, 0.5, 0.9), replicates=7, seed=3),
                     id="n3-counts-round-to-none-and-all"),  # round(0.3) = 0, round(2.7) = 3
        pytest.param(lambda: make_maps(n=30, seed=2)[:3], TaskKind.MULTICLASS,
                     MixConfig(alphas=(0.0, 0.02, 0.4, 0.98, 1.0), replicates=1, seed=5),
                     id="one-replicate"),
        pytest.param(lambda: make_maps(n=30, seed=2)[:3], TaskKind.MULTICLASS,
                     MixConfig(alphas=(0.0, 0.02, 0.4, 0.98, 1.0), replicates=400, seed=5),
                     id="400-replicates"),
        pytest.param(lambda: make_set_maps(n=25, seed=4)[:3], TaskKind.MULTILABEL,
                     MixConfig(alphas=(0.0, 0.01, 0.6, 0.99, 1.0), replicates=9, seed=8),
                     id="multilabel"),
    ])
    def test_swap_counts_of_none_and_all(self, maps, kind, cfg):
        self.check(*maps(), kind, cfg)

    def assert_first_error_at(self, llm, expert, crowd, alphas, at):
        """The oracle and the curve run clean on alphas[:at] and raise the same
        error once alphas[at] is added."""
        self.check(llm, expert, crowd, TaskKind.MULTICLASS,
                   MixConfig(alphas=alphas[:at], replicates=6, seed=1))
        cfg = MixConfig(alphas=alphas[:at + 1], replicates=6, seed=1)
        with pytest.raises(ValidationError) as want:
            curve_oracle(llm, expert, crowd, cfg, TaskKind.MULTICLASS)
        with pytest.raises(ValidationError) as got:
            sensitivity_curve(llm, expert, crowd, cfg, TaskKind.MULTICLASS)
        assert str(got.value) == str(want.value)
        assert "single labels" in str(got.value)

    def test_rejected_crowd_label_first_reached_by_swapping_everything(self):
        llm, expert, crowd, items = make_maps(n=40, seed=3)
        crowd[items[17]] = LabelValue.of([0, 1])
        # 0.025 of 40 items is one swap per replicate; none of these six draws item 17
        self.assert_first_error_at(llm, expert, crowd, (0.0, 0.025, 1.0), at=2)

    def test_rejected_crowd_label_first_reached_at_an_interior_alpha(self):
        llm, expert, crowd, items = make_maps(n=40, seed=3)
        for i in items[::3]:
            crowd[i] = LabelValue.of([0, 2])
        self.assert_first_error_at(llm, expert, crowd, (0.0, 0.5, 1.0), at=1)

    def test_only_interior_replicates_draw(self, monkeypatch):
        draws = []
        real = sensitivity._swap_positions

        def counted(n, alpha, seed):
            draws.append(alpha)
            return real(n, alpha, seed)

        llm, expert, crowd, _ = make_maps(n=20, seed=6)
        # round(alpha * 20): 0, 0, 5, 10, 20, 20
        cfg = MixConfig(alphas=(0.0, 0.02, 0.25, 0.5, 0.98, 1.0), replicates=4, seed=9)
        monkeypatch.setattr(sensitivity, "_swap_positions", counted)
        curve = sensitivity_curve(llm, expert, crowd, cfg, TaskKind.MULTICLASS)
        assert draws == [0.25] * 4 + [0.5] * 4
        monkeypatch.undo()
        assert [point.gaps for point in curve] == curve_oracle(
            llm, expert, crowd, cfg, TaskKind.MULTICLASS)
