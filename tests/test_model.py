import json

import numpy as np
import pytest

from fedagg.errors import NotPositiveSemidefiniteError
from fedagg.model import (
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    SymmetricSourceModel,
    load_model,
    symmetric_covariance,
    validate_psd,
)


class TestSymmetricCovariance:
    def test_zero_correlation_is_identity(self):
        np.testing.assert_allclose(symmetric_covariance(0.0, 1.0, 3), np.eye(3))

    def test_half_correlation_2x2(self):
        np.testing.assert_allclose(
            symmetric_covariance(0.5, 2.0, 2), [[2.0, 1.0], [1.0, 2.0]]
        )

    def test_eigenvalues_closed_form(self):
        sigma = symmetric_covariance(0.9, 1.0, 10)
        eigs = np.sort(np.linalg.eigvalsh(sigma))
        np.testing.assert_allclose(eigs[:9], 0.1, rtol=1e-12)
        np.testing.assert_allclose(eigs[9], 1 + 9 * 0.9, rtol=1e-12)

    @pytest.mark.parametrize("rho,sigma2", [(1.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, -2.0)])
    def test_domain_errors(self, rho, sigma2):
        with pytest.raises(ValueError):
            symmetric_covariance(rho, sigma2, 2)

    def test_eigenvalue_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = rng.uniform(0, 0.99)
            s2 = rng.uniform(0.1, 10)
            m = int(rng.integers(1, 12))
            eigs = np.sort(np.linalg.eigvalsh(symmetric_covariance(rho, s2, m)))
            np.testing.assert_allclose(eigs[-1], (1 + (m - 1) * rho) * s2, rtol=1e-12)
            if m > 1:
                np.testing.assert_allclose(eigs[:-1], (1 - rho) * s2, rtol=1e-12)


class TestValidatePsd:
    def test_identity_passthrough(self):
        np.testing.assert_array_equal(validate_psd(np.eye(2)), np.eye(2))

    def test_rank_one_passthrough_up_to_jitter(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = validate_psd(mat)
        assert np.abs(out - mat).max() <= 1e-11

    def test_tiny_negative_eigenvalue_gets_jitter(self):
        # Eigenvalues 2 + 1e-13 and -1e-13: within -1e-10 trace/M, so the
        # diagonal gains 1e-12 trace/M (trace/M = 1) and the result is PSD.
        mat = np.array([[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]])
        assert np.linalg.eigvalsh(mat)[0] < 0.0
        out = validate_psd(mat)
        assert np.array_equal(out, mat + 1e-12 * np.eye(2))
        assert np.linalg.eigvalsh(out)[0] >= 0.0

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            validate_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            validate_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            validate_psd(np.array([[bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            validate_psd(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            GaussianSourceModel(sigma_x=np.eye(2), c=np.array([bad, 1.0]))


class TestSymmetricSourceModel:
    def test_expand_round_trip(self):
        model = SymmetricSourceModel(rho=0.37, sigma2=2.5, groups=((2, 1.0), (3, 0.5)))
        expanded, budget = model.expand()
        sigma = expanded.sigma_x
        assert expanded.M == 5
        np.testing.assert_allclose(sigma[0, 0], 2.5, rtol=1e-12)
        np.testing.assert_allclose(sigma[0, 1] / sigma[0, 0], 0.37, rtol=1e-12)
        np.testing.assert_array_equal(budget.r, [1.0, 1.0, 0.5, 0.5, 0.5])

    def test_exact_equicorrelated_form(self):
        model = SymmetricSourceModel(rho=0.6, sigma2=1.5, groups=((4, 1.0),))
        expanded, _ = model.expand()
        expected = 0.6 * 1.5 * np.ones((4, 4)) + 0.4 * 1.5 * np.eye(4)
        np.testing.assert_array_equal(expanded.sigma_x, expected)

    def test_json_round_trip(self):
        model = SymmetricSourceModel(rho=0.2, sigma2=1.0, groups=((1, 2.0), (2, 0.25)))
        again = load_model(model.to_json())
        assert again == model

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            SymmetricSourceModel(rho=0.2, sigma2=1.0, groups=((0, 1.0),))
        with pytest.raises(ValueError):
            SymmetricSourceModel(rho=0.2, sigma2=1.0, groups=((2, -1.0),))


class TestOtherTypes:
    def test_gaussian_model_json_round_trip(self):
        model = GaussianSourceModel(
            sigma_x=symmetric_covariance(0.5, 2.0, 3), c=np.array([0.2, 0.3, 0.5])
        )
        again = load_model(model.to_json())
        np.testing.assert_array_equal(again.sigma_x, model.sigma_x)
        np.testing.assert_array_equal(again.c, model.c)

    def test_load_model_dispatch(self):
        sym = SymmetricSourceModel(rho=0.2, sigma2=1.0, groups=((2, 1.0),))
        assert isinstance(load_model(sym.to_json()), SymmetricSourceModel)
        gen = GaussianSourceModel(sigma_x=np.eye(2), c=np.ones(2))
        assert isinstance(load_model(gen.to_json()), GaussianSourceModel)

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        "null",
        '{"rho": 0.5, "sigma2": 1.0, "groups": [3]}',
        '{"rho": 0.5, "sigma2": 1.0}',
        '{"sigma_x": [1.0], "c": [1.0]}',
    ])
    def test_malformed_document_is_a_value_error(self, text):
        # A document that parses but is not a model once raised KeyError or
        # TypeError, which the CLI did not report as a config error.
        with pytest.raises(ValueError, match="malformed model document"):
            load_model(text)

    def test_c_length_mismatch(self):
        with pytest.raises(ValueError):
            GaussianSourceModel(sigma_x=np.eye(2), c=np.ones(3))

    def test_rate_budget_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RateBudget(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            RateBudget(np.array([np.inf]))

    def test_mbtc_params_allows_inf_rejects_tiny(self):
        MbtcParams(np.array([1e-12, np.inf]))
        with pytest.raises(ValueError):
            MbtcParams(np.array([1e-13]))

    def test_model_json_is_valid_json(self):
        doc = json.loads(GaussianSourceModel(sigma_x=np.eye(1), c=np.ones(1)).to_json())
        assert doc["M"] == 1
