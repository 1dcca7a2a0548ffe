import math

import numpy as np
import pytest

from spikesim import (
    ModelParams,
    Regime,
    State,
    UndefinedStationaryPointError,
    classify_regime,
    discriminant,
    eigenvalues,
    gamma_boundaries,
    jacobian,
    stability_report,
    stationary_point,
    vector_field,
)
from conftest import PARAM_GRID


def eig_oracle(params):
    """Independent route: numerical eigenvalues of the linearization."""
    return np.linalg.eigvals(np.array(jacobian(params)))


class TestModelParams:
    def test_z_is_precomputed(self):
        p = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
        assert p.z == 1.0 * 7.0 + 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-0.1, beta=1.0, gamma=1.0, p=1.0),
            dict(alpha=0.1, beta=0.0, gamma=1.0, p=1.0),
            dict(alpha=0.1, beta=-1.0, gamma=1.0, p=1.0),
            dict(alpha=0.1, beta=1.0, gamma=0.0, p=1.0),
            dict(alpha=0.1, beta=1.0, gamma=1.0, p=-1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_rejects_a_z_that_overflows(self):
        with pytest.raises(ValueError, match="z = beta\\*p \\+ alpha must be finite"):
            ModelParams(alpha=1e308, beta=1e308, gamma=1.0, p=1e308)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        kwargs = dict(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**kwargs)


class TestVectorField:
    def test_annihilated_at_stationary_point(self, fig1_params):
        dr, dn = vector_field(fig1_params, stationary_point(fig1_params))
        assert abs(dr) < 1e-12 and abs(dn) < 1e-12

    def test_direct_evaluation(self):
        p = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
        dr, dn = vector_field(p, State(1.0, 1.0))
        assert dr == pytest.approx(3.495, abs=1e-12)
        assert dn == pytest.approx(-0.99, abs=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_origin(self, params):
        dr, dn = vector_field(params, State(0.0, 0.0))
        assert dr == params.p / params.gamma
        assert dn == 0.0

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_stationary_point_annihilates_field(self, params):
        dr, dn = vector_field(params, stationary_point(params))
        assert abs(dr) < 1e-12 and abs(dn) < 1e-12


class TestStationaryPoint:
    def test_fig1_values(self, fig1_params):
        r_star, n_star = stationary_point(fig1_params)
        assert r_star == pytest.approx(14.0 / 7.01, abs=1e-15)
        assert n_star == 7.0

    def test_alpha_zero(self):
        p = ModelParams(alpha=0.0, beta=1.0, gamma=3.0, p=7.0)
        assert stationary_point(p) == (2.0, 7.0)

    def test_no_pumping(self):
        p = ModelParams(alpha=0.5, beta=1.0, gamma=1.0, p=0.0)
        assert stationary_point(p) == (0.0, 0.0)

    def test_undefined_without_drive(self):
        p = ModelParams(alpha=0.0, beta=1.0, gamma=1.0, p=0.0)
        with pytest.raises(UndefinedStationaryPointError):
            stationary_point(p)


class TestDiscriminantAndEigenvalues:
    def test_discriminant_alpha0(self):
        p = ModelParams(alpha=0.0, beta=1.0, gamma=1.0, p=7.0)
        assert discriminant(p) == pytest.approx(0.25 * 49 - 7, abs=1e-12)

    def test_discriminant_fig1(self, fig1_params):
        assert discriminant(fig1_params) == pytest.approx(-0.0687695, abs=1e-7)

    def test_eigenvalues_fig1(self, fig1_params):
        lam1, lam2 = eigenvalues(fig1_params)
        assert lam1 == pytest.approx(complex(-0.0364766, 0.262239), abs=1e-6)
        assert lam2 == lam1.conjugate()

    def test_double_root_at_gamma0(self):
        p = ModelParams(alpha=0.0, beta=1.0, gamma=1.75, p=7.0)
        lam1, lam2 = eigenvalues(p)
        assert lam1 == pytest.approx(complex(-2.0, 0.0), abs=1e-9)
        assert lam2 == pytest.approx(complex(-2.0, 0.0), abs=1e-9)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_always_stable(self, params):
        lam1, lam2 = eigenvalues(params)
        assert lam1.real < 0 and lam2.real < 0

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_matches_numerical_linearization(self, params):
        mine = sorted(eigenvalues(params), key=lambda v: (v.real, v.imag))
        oracle = sorted(eig_oracle(params), key=lambda v: (v.real, v.imag))
        # Near a double root the numerical eigenproblem is ill-conditioned
        # (error ~ sqrt(eps)), so the match tolerance cannot be tighter.
        for a, b in zip(mine, oracle):
            assert a == pytest.approx(complex(b), abs=1e-6)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_vieta(self, params):
        lam1, lam2 = eigenvalues(params)
        z, g, b = params.z, params.gamma, params.beta
        trace = -(z / g + params.alpha * (1 + b) / (z * b))
        assert (lam1 + lam2).real == pytest.approx(trace, abs=1e-10)
        assert abs((lam1 + lam2).imag) < 1e-10
        prod = lam1 * lam2
        assert prod.real == pytest.approx(z / (g * b), abs=1e-10)
        assert abs(prod.imag) < 1e-10

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_focus_iff_complex(self, params):
        regime = classify_regime(params)
        has_imag = abs(eig_oracle(params)[0].imag) > 1e-12
        assert (regime is Regime.STABLE_FOCUS) == has_imag


class TestClassifyRegime:
    def test_node_at_gamma1(self):
        assert classify_regime(ModelParams(0.01, 1.0, 1.0, 7.0)) is Regime.STABLE_NODE

    def test_focus_at_gamma100(self, fig1_params):
        assert classify_regime(fig1_params) is Regime.STABLE_FOCUS

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0, 100.0])
    def test_node_for_alpha_above_p(self, gamma):
        p = ModelParams(alpha=8.0, beta=1.0, gamma=gamma, p=7.0)
        assert classify_regime(p) is Regime.STABLE_NODE


class TestGammaBoundaries:
    def test_alpha_zero(self):
        b = gamma_boundaries(ModelParams(0.0, 1.0, 5.0, 7.0))
        assert b.gamma0 == pytest.approx(1.75)
        assert b.gamma1 is None and b.gamma2 is None

    def test_fig1_family(self):
        b = gamma_boundaries(ModelParams(0.01, 1.0, 5.0, 7.0))
        assert b.gamma0 is None
        assert b.gamma1 == pytest.approx(1.7550, abs=1e-4)
        assert b.gamma2 == pytest.approx(3.44e6, rel=1e-2)
        assert b.gamma_star == pytest.approx(3.5100, abs=1e-4)
        assert b.delta_at_star == pytest.approx(-0.997147, abs=1e-6)

    def test_matches_quadratic_formula(self):
        # Direct transcription of the boundary expression, accurate enough
        # away from the alpha -> 0 cancellation.
        a, beta, p = 0.01, 1.0, 7.0
        params = ModelParams(a, beta, 2.0, p)
        z = params.z
        pref = beta**2 * z**2 / (a**2 * (1 + beta) ** 2)
        root = 2.0 * math.sqrt(z * (p - a) / beta)
        lead = (2.0 * z - a * (1.0 + beta)) / beta
        b = gamma_boundaries(params)
        assert b.gamma1 == pytest.approx(pref * (lead - root), rel=1e-6)
        assert b.gamma2 == pytest.approx(pref * (lead + root), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-200, 5e-324])
    def test_gamma2_is_its_limit_where_c_squared_underflows(self, alpha):
        # c ~ alpha, so c * c underflows to 0 below alpha ~ 5e-162; gamma2 is
        # then inf, its alpha -> 0 limit, as it already is at alpha = 1e-160.
        b = gamma_boundaries(ModelParams(alpha, 1.0, 5.0, 7.0))
        assert b.gamma2 == math.inf
        assert b.gamma1 == pytest.approx(1.75)
        assert gamma_boundaries(ModelParams(1e-160, 1.0, 5.0, 7.0)).gamma2 == math.inf

    def test_absent_for_alpha_at_or_above_p(self):
        for a in (7.0, 9.0):
            b = gamma_boundaries(ModelParams(a, 1.0, 5.0, 7.0))
            assert b.gamma1 is None and b.gamma2 is None
            assert b.gamma_star is None and b.delta_at_star is None

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(0.01, 1.0, 5.0, 7.0),
            ModelParams(0.5, 2.0, 5.0, 7.0),
            ModelParams(0.2, 0.5, 5.0, 3.0),
        ],
    )
    def test_discriminant_vanishes_at_boundaries(self, params):
        b = gamma_boundaries(params)
        for gamma in (b.gamma1, b.gamma2):
            at_boundary = ModelParams(params.alpha, params.beta, gamma, params.p)
            assert abs(discriminant(at_boundary)) < 1e-9

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(0.01, 1.0, 5.0, 7.0),
            ModelParams(0.5, 2.0, 5.0, 7.0),
            ModelParams(0.2, 0.5, 5.0, 3.0),
        ],
    )
    def test_discriminant_minimum_and_limits(self, params):
        b = gamma_boundaries(params)
        star = b.gamma_star

        def disc(gamma):
            return discriminant(
                ModelParams(params.alpha, params.beta, gamma, params.p)
            )

        assert disc(star) == pytest.approx(b.delta_at_star, rel=1e-12)
        assert b.delta_at_star < 0

        # Strictly decreasing before gamma*, strictly increasing after.
        below = np.geomspace(star / 100, star, 40)
        vals = [disc(g) for g in below]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        above = np.geomspace(star, star * 1e4, 40)
        vals = [disc(g) for g in above]
        assert all(x < y for x, y in zip(vals, vals[1:]))

        # Large-gamma limit of the discriminant (1/gamma correction decays).
        z, beta, a = params.z, params.beta, params.alpha
        limit = (a * (1 + beta) / (2 * z * beta)) ** 2
        assert disc(1e14) == pytest.approx(limit, rel=1e-4)

    def test_small_alpha_limits(self):
        # gamma1 -> beta^2 p / 4 and gamma2 -> infinity as alpha -> 0.
        b = gamma_boundaries(ModelParams(1e-6, 1.0, 5.0, 7.0))
        assert b.gamma1 == pytest.approx(1.75, abs=1e-3)
        assert b.gamma2 > 1e6

    def test_focus_window_matches_classification(self):
        params = ModelParams(0.05, 1.0, 5.0, 7.0)
        b = gamma_boundaries(params)
        for gamma in np.geomspace(b.gamma1 / 50, b.gamma2 * 50, 60):
            regime = classify_regime(
                ModelParams(params.alpha, params.beta, gamma, params.p)
            )
            inside = b.gamma1 < gamma < b.gamma2
            assert (regime is Regime.STABLE_FOCUS) == inside

    @pytest.mark.parametrize(
        "params",
        [ModelParams(0.01, 1.0, 5.0, 7.0), ModelParams(0.5, 2.0, 5.0, 7.0)],
    )
    def test_ordering(self, params):
        b = gamma_boundaries(params)
        assert b.gamma1 <= b.gamma_star <= b.gamma2


class TestStabilityReport:
    def test_fig1_report(self, fig1_params):
        report = stability_report(fig1_params)
        assert report.regime is Regime.STABLE_FOCUS
        assert report.fixed_point.n == 7.0
        d = report.to_dict()
        assert d["regime"] == "StableFocus"
        assert d["eigenvalues"][0]["im"] == pytest.approx(0.262239, abs=1e-6)

    def test_node_report_real_pair(self):
        report = stability_report(ModelParams(0.01, 1.0, 1.0, 7.0))
        assert report.regime is Regime.STABLE_NODE
        assert report.eigenvalues[0].imag == 0.0
