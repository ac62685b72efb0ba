import math

import numpy as np
import pytest

from cascadekit.errors import (
    AlphaOutOfRangeError,
    DegenerateCorrelationError,
    DegenerateSamplesError,
    EmptyInputError,
    InsufficientSamplesError,
    LengthMismatchError,
    SampleTooSmallError,
    ZeroSumError,
    ZeroVarianceError,
)
from cascadekit.stats import (
    PowerLawSpec,
    fisher_z_compare,
    fit_powerlaw_alpha,
    gini,
    normal_cdf,
    pearson,
    powerlaw_median,
)


class TestPowerlawMedian:
    def test_alpha_two_doubles_xmin(self):
        assert powerlaw_median(PowerLawSpec(alpha=2, x_min=5)) == 10.0
        assert powerlaw_median(PowerLawSpec(alpha=2, x_min=1)) == 2.0

    def test_alpha_three(self):
        assert powerlaw_median(PowerLawSpec(alpha=3, x_min=4)) == pytest.approx(
            4 * math.sqrt(2), abs=1e-6
        )

    def test_alpha_three_against_quadrature(self):
        # Independent check: integrate the density until mass hits one half.
        spec = PowerLawSpec(alpha=3, x_min=4)
        xs = np.linspace(4.0, 40.0, 2_000_001)
        density = (spec.alpha - 1) / spec.x_min * (xs / spec.x_min) ** -spec.alpha
        cdf = np.cumsum((density[1:] + density[:-1]) / 2 * np.diff(xs))
        crossing = xs[1:][np.searchsorted(cdf, 0.5)]
        assert powerlaw_median(spec) == pytest.approx(crossing, abs=1e-3)

    def test_doubling_identity_over_scales(self):
        for x in range(1, 1001):
            assert powerlaw_median(PowerLawSpec(alpha=2, x_min=x)) == 2.0 * x

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRangeError):
            PowerLawSpec(alpha=1.0, x_min=1.0)


class TestFitAlpha:
    def test_three_point_example(self):
        assert fit_powerlaw_alpha([2, 4, 8], 2) == pytest.approx(
            1 + 1 / math.log(2), abs=1e-12
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateSamplesError):
            fit_powerlaw_alpha([3.0, 3.0, 3.0], 3.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamplesError):
            fit_powerlaw_alpha([1.0, 2.0], 5.0)

    def test_discards_below_cutoff(self):
        with_junk = fit_powerlaw_alpha([0.1, 0.5, 2, 4, 8], 2)
        assert with_junk == pytest.approx(fit_powerlaw_alpha([2, 4, 8], 2))

    def test_recovers_exponent_on_pareto_draws(self, rng):
        u = 1.0 - rng.random(100_000)
        samples = u ** (-1.0)  # inverse CDF of Pareto(alpha=2, x_min=1)
        alpha_hat = fit_powerlaw_alpha(samples.tolist(), 1.0)
        assert 1.95 <= alpha_hat <= 2.05

    @pytest.mark.parametrize("samples, x_min", [
        ([1.0, 1e300, 2.0], 1e-10),
        ([1.0, 2.0, 3.0], 1e-320),
    ])
    def test_ratio_past_the_float_range(self, samples, x_min):
        """A sample over x_min that overflows still adds its log ratio."""
        log_sum = math.fsum(math.log(x) - math.log(x_min) for x in samples)
        assert fit_powerlaw_alpha(samples, x_min) == pytest.approx(
            1 + len(samples) / log_sum, rel=1e-15
        )
        assert fit_powerlaw_alpha(samples, x_min) > 1.001


class TestGini:
    def test_perfect_equality(self):
        assert gini([1, 1, 1, 1]) == 0.0

    def test_one_hot(self):
        assert gini([0, 0, 0, 10]) == 0.75

    def test_single_value(self):
        assert gini([10]) == 0.0

    def test_scale_invariance(self, rng):
        for _ in range(20):
            v = rng.random(50).tolist()
            c = float(rng.random() * 9 + 0.5)
            assert gini([c * x for x in v]) == pytest.approx(gini(v), abs=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            v = rng.random(int(rng.integers(1, 40))).tolist()
            g = gini(v)
            assert 0.0 <= g <= 1.0 - 1.0 / len(v) + 1e-12

    @pytest.mark.parametrize("values, expected", [
        ([1e308, 1e308], 0.0),
        ([0.0, 1e308], 0.5),
        ([0.0, 0.0, 1.7976931348623157e308], 2 / 3),
        ([1e308] * 5, 0.0),
    ])
    def test_sums_past_the_float_range(self, values, expected):
        """Values whose sums overflow give the G of the same values scaled
        down."""
        assert gini(values) == pytest.approx(expected, abs=1e-15)
        assert gini(values) == gini([x * 2.0**-64 for x in values])

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            gini([])
        with pytest.raises(ZeroSumError):
            gini([0.0, 0.0])
        with pytest.raises(ValueError):
            gini([-1.0, 2.0])


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_antilinear(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        expected = 3 / math.sqrt(2 * 14 / 3)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-9)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_affine_invariance(self, rng):
        x = rng.random(30).tolist()
        y = rng.random(30).tolist()
        r = pearson(x, y)
        assert pearson([5 * a + 3 for a in x], y) == pytest.approx(r, abs=1e-9)
        assert pearson(x, [0.1 * b - 7 for b in y]) == pytest.approx(r, abs=1e-9)

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ZeroVarianceError):
            pearson([1, 1, 1], [1, 2, 3])


class TestFisherZ:
    def test_identical_correlations(self):
        assert fisher_z_compare(0.3, 50, 0.3, 900) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example(self):
        p = fisher_z_compare(0.5, 103, 0.0, 103)
        z = math.atanh(0.5) / math.sqrt(2 / 100)
        assert z == pytest.approx(3.884, abs=2e-3)
        assert p == pytest.approx(1.03e-4, abs=2e-5)

    def test_degenerate(self):
        with pytest.raises(DegenerateCorrelationError):
            fisher_z_compare(1.0, 50, 0.0, 50)

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmallError):
            fisher_z_compare(0.2, 3, 0.1, 50)

    def test_normal_cdf_against_table(self):
        # Round-number quantiles from the standard normal table.
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_cdf(1.0) == pytest.approx(0.8413447, abs=1e-7)
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert normal_cdf(-2.575829) == pytest.approx(0.005, abs=1e-6)


class TestMedianDoubling:
    def test_conditional_median_of_alpha_two_tail(self, rng):
        """Above any cutoff k, the median of an alpha=2 tail sits near 2k."""
        u = 1.0 - rng.random(200_000)
        draws = u ** (-1.0)
        for k in (5, 10, 25):
            tail = draws[draws >= k]
            med = float(np.median(tail))
            assert 1.9 * k <= med <= 2.1 * k
