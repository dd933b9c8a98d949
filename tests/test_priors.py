import json

import numpy as np
import pytest

from bgelearn.errors import (
    AlphaTooSmallError,
    DataParseError,
    NotPositiveDefiniteError,
)
from bgelearn.network import (
    Dag,
    GaussianNetwork,
    GaussianParams,
    implied_covariance,
)
from bgelearn.priors import (
    NormalWishartPrior,
    PriorSpec,
    elicit,
    load_prior_spec,
    parse_prior,
    parse_prior_spec,
)


def no_arc_spec(n, nu, alpha, variances=None, means=None):
    names = tuple(f"x{i}" for i in range(n))
    net = GaussianNetwork(
        Dag.from_edges(names),
        GaussianParams(
            means if means is not None else (0.0,) * n,
            variances if variances is not None else (1.0,) * n,
        ),
    )
    return PriorSpec(net, nu, alpha)


class TestElicit:
    def test_demo_hyperparameters_exact(self, demo_spec):
        prior = elicit(demo_spec)
        t = 12.0 / 7.0
        expected = np.array([[t, 0.0, t], [0.0, t, t], [t, t, 3 * t]])
        np.testing.assert_allclose(prior.t0, expected, atol=1e-12)
        np.testing.assert_allclose(prior.mu0, [0.1, -0.3, 0.2])
        assert (prior.nu, prior.alpha) == (6.0, 6.0)

    def test_demo_matches_printed_rounding(self, demo_prior):
        printed = np.array([[1.7, 0.0, 1.7], [0.0, 1.7, 1.7], [1.7, 1.7, 5.1]])
        assert np.abs(demo_prior.t0 - printed).max() < 0.05

    def test_two_variable_scaling(self):
        prior = elicit(no_arc_spec(2, nu=3, alpha=5))
        np.testing.assert_allclose(prior.t0, 1.5 * np.eye(2), atol=1e-14)

    def test_unit_scale_factor(self):
        prior = elicit(no_arc_spec(1, nu=1, alpha=4, variances=(2.0,)))
        np.testing.assert_allclose(prior.t0, [[2.0]], atol=1e-15)

    def test_alpha_boundary_rejected(self):
        with pytest.raises(AlphaTooSmallError):
            no_arc_spec(2, nu=1, alpha=3)  # alpha == n + 1

    def test_elicitation_inverts_covariance_scaling(self, demo_spec, demo_prior):
        n = 3
        back = (
            (demo_spec.nu + 1)
            / (demo_spec.nu * (demo_spec.alpha - n - 1))
            * demo_prior.t0
        )
        np.testing.assert_allclose(
            back, implied_covariance(demo_spec.prior_network), atol=1e-12
        )

    def test_mean_shift_moves_mu0_only(self, demo_spec):
        base = elicit(demo_spec)
        net = demo_spec.prior_network
        shifted_net = GaussianNetwork(
            net.dag,
            GaussianParams(
                tuple(m + 2.5 for m in net.params.means),
                net.params.cond_variances,
                net.params.coefficients,
            ),
        )
        shifted = elicit(PriorSpec(shifted_net, demo_spec.nu, demo_spec.alpha))
        np.testing.assert_allclose(shifted.mu0, base.mu0 + 2.5)
        np.testing.assert_array_equal(shifted.t0, base.t0)


class TestNormalWishartPrior:
    def test_requires_positive_definite_t0(self):
        with pytest.raises(NotPositiveDefiniteError):
            NormalWishartPrior([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 1.0, 3.0)

    def test_weaker_alpha_bound_for_direct_hyperparameters(self):
        # alpha > n - 1 suffices when scoring with supplied hyperparameters
        prior = NormalWishartPrior([0.0, 0.0], np.eye(2), 1.0, 1.5)
        assert prior.alpha == 1.5
        with pytest.raises(ValueError):
            NormalWishartPrior([0.0, 0.0], np.eye(2), 1.0, 1.0)

    def test_restrict(self, demo_prior):
        sub = demo_prior.restrict([0, 2])
        np.testing.assert_array_equal(sub.mu0, demo_prior.mu0[[0, 2]])
        np.testing.assert_array_equal(
            sub.t0, demo_prior.t0[np.ix_([0, 2], [0, 2])]
        )
        assert (sub.nu, sub.alpha) == (demo_prior.nu, demo_prior.alpha)


class TestPriorSpecFiles:
    def test_load_demo(self, sample_dir):
        spec = load_prior_spec(sample_dir / "prior.json")
        assert spec.nu == 6.0
        assert spec.alpha == 6.0
        assert spec.prior_network.variables == ("x1", "x2", "x3")

    def test_missing_sample_size(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nu": 1, "variables": []}))
        with pytest.raises(DataParseError):
            load_prior_spec(p)

    def test_parse_rejects_non_numeric_alpha(self):
        with pytest.raises(DataParseError):
            parse_prior_spec({"nu": 1, "alpha": "six", "variables": []})

    def test_direct_hyperparameter_form(self):
        prior, names = parse_prior(
            {"nu": 1, "alpha": 2, "mu0": [0.0], "t0": [[1.0]], "variables": ["y"]}
        )
        assert names == ("y",)
        assert (prior.nu, prior.alpha) == (1.0, 2.0)
        np.testing.assert_array_equal(prior.t0, [[1.0]])

    def test_direct_form_keeps_weak_alpha_bound(self):
        # alpha = 2 is below the elicitation bound but legal for scoring
        prior, _ = parse_prior({"nu": 1, "alpha": 2, "mu0": [0.0], "t0": [[1.0]]})
        assert prior.alpha == 2.0

    def test_network_form_still_elicits(self, sample_dir):
        import json as _json

        obj = _json.loads((sample_dir / "prior.json").read_text())
        prior, names = parse_prior(obj)
        assert names == ("x1", "x2", "x3")
        assert prior.t0[0, 0] == pytest.approx(12 / 7)

    def test_direct_form_missing_field(self):
        with pytest.raises(DataParseError):
            parse_prior({"nu": 1, "alpha": 2, "mu0": [0.0]})
