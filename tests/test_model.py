import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, sparse, stats

from gapcast import autodiff as ad
from gapcast.autodiff import Tape
from gapcast.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from gapcast.graph import normalize
from gapcast.model import (
    EvidentialOutput,
    ModelConfig,
    dgcn_layer,
    forward,
    init_params,
    input_layer,
    nig_nll,
    nig_nll_values,
    weighted_mean,
)

from conftest import finite_difference_gradient, relative_error


class TestInputLayer:
    def test_all_ones_mask(self, rng):
        x = ad.constant(rng.normal(size=(4, 6)))
        out = input_layer(x, ad.constant(np.ones((4, 6))))
        np.testing.assert_array_equal(out.values, x.values)

    def test_all_zeros_mask(self, rng):
        x = ad.constant(rng.normal(size=(4, 6)))
        out = input_layer(x, ad.constant(np.zeros((4, 6))))
        np.testing.assert_array_equal(out.values, np.zeros((4, 6)))

    def test_single_masked_row(self, rng):
        x = ad.constant(rng.normal(size=(3, 5)))
        mask = np.ones((3, 5))
        mask[1] = 0.0
        out = input_layer(x, ad.constant(mask))
        np.testing.assert_array_equal(out.values[1], np.zeros(5))
        np.testing.assert_array_equal(out.values[0], x.values[0])


def custom_params(cfg, history, fill):
    """Parameter dict with every theta set via fill(shape) and zero heads."""
    params = {}
    width = history
    for layer in range(1, cfg.layers + 1):
        for k in range(1, cfg.cheb_order + 1):
            for d in ("f", "b"):
                params[f"theta_{d}_l{layer}_k{k}"] = ad.parameter(fill((width, cfg.hidden_dim)))
        width = cfg.hidden_dim
    params["head_w"] = ad.parameter(np.zeros((cfg.hidden_dim, 4)))
    params["head_b"] = ad.parameter(np.zeros((1, 4)))
    params["rec_w"] = ad.parameter(np.zeros((cfg.hidden_dim, history)))
    params["rec_b"] = ad.parameter(np.zeros((1, history)))
    return params


class TestDgcnLayer:
    def test_identity_everything_doubles_h(self, rng):
        cfg = ModelConfig(hidden_dim=4, layers=2, cheb_order=1)
        params = custom_params(cfg, 4, lambda s: np.eye(*s))
        h = ad.constant(rng.normal(size=(3, 4)))
        out = dgcn_layer(h, (np.eye(3), np.eye(3)), 1, params, cfg)
        np.testing.assert_allclose(out.values, 2 * h.values, atol=1e-12)

    def test_zero_weights_give_zero(self, rng):
        cfg = ModelConfig(hidden_dim=4, layers=3, cheb_order=2)
        params = custom_params(cfg, 4, np.zeros)
        h = ad.constant(rng.normal(size=(3, 4)))
        out = dgcn_layer(h, (np.eye(3), np.eye(3)), 3, params, cfg)
        np.testing.assert_array_equal(out.values, np.zeros((3, 4)))

    def test_layer2_applies_activation_and_residual(self, rng):
        cfg = ModelConfig(hidden_dim=4, layers=2, cheb_order=1)
        params = custom_params(cfg, 4, np.zeros)
        h1 = ad.constant(rng.normal(size=(3, 4)))
        out = dgcn_layer(h1, (np.eye(3), np.eye(3)), 2, params, cfg)
        np.testing.assert_allclose(out.values, h1.values)  # relu(0) + H1

    def test_matches_naive_loop_oracle(self, rng):
        n, width, hidden, order = 5, 3, 4, 2
        cfg = ModelConfig(hidden_dim=hidden, layers=2, cheb_order=order)
        params = custom_params(cfg, width, lambda s: rng.normal(size=s))
        abar = normalize(sparse.csr_array(rng.uniform(0, 1, (n, n))))
        h = ad.constant(rng.normal(size=(n, width)))

        def cheb_mats(a):
            mats = [np.eye(n), a]
            for _ in range(2, order + 1):
                mats.append(2 * a @ mats[-1] - mats[-2])
            return mats

        tf, tb = cheb_mats(abar), cheb_mats(abar.T)
        naive = np.zeros((n, hidden))
        for k in range(1, order + 1):
            for i in range(n):
                for j in range(hidden):
                    for p in range(n):
                        for q in range(width):
                            naive[i, j] += (
                                tf[k][i, p]
                                * h.values[p, q]
                                * params[f"theta_f_l1_k{k}"].values[q, j]
                            )
                            naive[i, j] += (
                                tb[k][i, p]
                                * h.values[p, q]
                                * params[f"theta_b_l1_k{k}"].values[q, j]
                            )
        out = dgcn_layer(h, (abar, abar.T), 1, params, cfg)
        np.testing.assert_allclose(out.values, naive, atol=1e-10)


def small_setup(rng, n=4, history=5, hidden=6):
    cfg = ModelConfig(hidden_dim=hidden, layers=3, cheb_order=2)
    params = init_params(cfg, history, rng)
    x = rng.normal(size=(n, history))
    mask = np.ones((n, history))
    mask[-1] = 0.0
    a = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(a, 1.0)
    return cfg, params, x, mask, sparse.csr_array(a)


class TestForward:
    def test_deterministic_bitwise(self, rng):
        cfg, params, x, mask, a = small_setup(rng)
        abar = normalize(a)
        f1 = forward(params, cfg, ad.constant(x), ad.constant(mask), abar)
        f2 = forward(params, cfg, ad.constant(x), ad.constant(mask), abar)
        assert np.array_equal(f1.gamma.values, f2.gamma.values)
        assert np.array_equal(f1.recovery.values, f2.recovery.values)

    def test_isolated_zero_mask_output_is_bias_only(self, rng):
        cfg = ModelConfig(hidden_dim=5, layers=3, cheb_order=2)
        params = init_params(cfg, 4, rng)
        abar = np.eye(1)
        mask = ad.constant(np.zeros((1, 4)))
        out1 = forward(params, cfg, ad.constant(rng.normal(size=(1, 4))), mask, abar)
        out2 = forward(params, cfg, ad.constant(rng.normal(size=(1, 4))), mask, abar)
        assert np.array_equal(out1.gamma.values, out2.gamma.values)

    def test_masked_node_own_features_ignored(self, rng):
        cfg, params, x, mask, a = small_setup(rng)
        abar = normalize(a)
        x2 = x.copy()
        x2[-1] = rng.normal(size=x.shape[1]) * 10  # masked row perturbed
        f1 = forward(params, cfg, ad.constant(x), ad.constant(mask), abar)
        f2 = forward(params, cfg, ad.constant(x2), ad.constant(mask), abar)
        assert np.array_equal(f1.gamma.values, f2.gamma.values)
        assert np.array_equal(f1.recovery.values, f2.recovery.values)

    def test_node_permutation_equivariance(self, rng):
        cfg, params, x, mask, a = small_setup(rng, n=6)
        perm = rng.permutation(6)
        f1 = forward(params, cfg, ad.constant(x), ad.constant(mask), normalize(a))
        f2 = forward(
            params,
            cfg,
            ad.constant(x[perm]),
            ad.constant(mask[perm]),
            normalize(sparse.csr_array(a.toarray()[np.ix_(perm, perm)])),
        )
        np.testing.assert_allclose(f2.gamma.values, f1.gamma.values[perm], atol=1e-10)
        np.testing.assert_allclose(f2.nu.values, f1.nu.values[perm], atol=1e-10)

    def test_constraints_hold_under_extreme_heads(self, rng):
        cfg, params, x, mask, a = small_setup(rng)
        for extreme in (-1000.0, 0.0, 1000.0):
            params["head_b"].values[:] = extreme
            fp = forward(params, cfg, ad.constant(x), ad.constant(mask), normalize(a))
            assert (fp.nu.values > 0).all() and (fp.beta.values > 0).all()
            assert (fp.alpha.values > 1).all()

    def test_full_model_gradcheck(self, rng):
        cfg, params, x, mask, a = small_setup(rng, n=4, history=3, hidden=4)
        abar = normalize(a)
        y = ad.constant(rng.normal(size=(4, 1)))
        w = ad.constant(np.full((4, 1), 0.25))

        def loss_value():
            fp = forward(params, cfg, ad.constant(x), ad.constant(mask), abar)
            pre = nig_nll(fp.gamma, fp.nu, fp.alpha, fp.beta, y, evidence_reg=0.01, weights=w)
            rec = weighted_mean(ad.square(ad.sub(fp.recovery, fp.h0)), w)
            return ad.add(pre, rec)

        with Tape() as tape:
            loss = loss_value()
        tape.backward(loss)
        for name, p in params.items():
            numeric = finite_difference_gradient(lambda: loss_value().item(), p.values)
            analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
            assert relative_error(analytic, numeric) < 1e-3, name


def nig_marginal_nll_quadrature(y, gamma, nu, alpha, beta):
    """-log of the NIG marginal density at y, via 1-D quadrature over the
    inverse-gamma-distributed variance. Independent of the closed form."""

    def integrand(var):
        density_var = stats.invgamma.pdf(var, alpha, scale=beta)
        pred_var = var * (1.0 + nu) / nu
        return stats.norm.pdf(y, loc=gamma, scale=math.sqrt(pred_var)) * density_var

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return -math.log(val)


class TestNigNll:
    def test_zero_residual_matches_analytic_constant(self):
        nu, alpha, beta = 1.5, 2.0, 0.8
        omega = 2 * beta * (1 + nu)
        expected = (
            0.5 * math.log(math.pi / nu)
            - alpha * math.log(omega)
            + (alpha + 0.5) * math.log(omega)
            + math.lgamma(alpha)
            - math.lgamma(alpha + 0.5)
        )
        got = nig_nll_values(np.array([2.0]), [nu], [alpha], [beta], np.array([2.0]))
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_residual_sign(self):
        base = dict(nu=[1.0], alpha=[2.5], beta=[1.2])
        up = nig_nll_values(np.array([0.0]), y=np.array([0.7]), **base)
        down = nig_nll_values(np.array([0.0]), y=np.array([-0.7]), **base)
        assert up[0] == pytest.approx(down[0], abs=1e-12)

    def test_matches_quadrature_oracle_spot(self):
        for resid in (0.0, 1.0, 2.0):
            closed = nig_nll_values(np.array([0.0]), [1.0], [2.0], [1.0], np.array([resid]))[0]
            numeric = nig_marginal_nll_quadrature(resid, 0.0, 1.0, 2.0, 1.0)
            assert closed == pytest.approx(numeric, abs=1e-4)

    def test_autodiff_path_equals_values_path(self, rng):
        n = 5
        gamma = rng.normal(size=(n, 1))
        nu = rng.uniform(0.5, 2, (n, 1))
        alpha = rng.uniform(1.5, 3, (n, 1))
        beta = rng.uniform(0.5, 2, (n, 1))
        y = rng.normal(size=(n, 1))
        w = np.full((n, 1), 1.0 / n)
        loss = nig_nll(
            ad.constant(gamma), ad.constant(nu), ad.constant(alpha), ad.constant(beta),
            ad.constant(y), evidence_reg=0.0, weights=ad.constant(w),
        )
        # one formula behind both paths, and the weighted sum taken as the
        # op takes it, so the values agree exactly
        assert loss.item() == (nig_nll_values(gamma, nu, alpha, beta, y) * w).sum()

    def test_values_keep_the_broadcast_shape(self, rng):
        gamma = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        got = nig_nll_values(gamma, 1.5, 2.0, 0.8, y)
        assert got.shape == (3, 4)
        for w in range(3):
            row = nig_nll_values(gamma[w], [1.5] * 4, [2.0] * 4, [0.8] * 4, y[w])
            np.testing.assert_allclose(got[w], row, rtol=1e-14)

    def test_evidence_regularizer_added(self, rng):
        gamma = np.zeros((3, 1))
        nu = np.full((3, 1), 1.0)
        alpha = np.full((3, 1), 2.0)
        beta = np.full((3, 1), 1.0)
        y = np.full((3, 1), 2.0)
        base = nig_nll_values(gamma, nu, alpha, beta, y).mean()
        loss = nig_nll(
            ad.constant(gamma), ad.constant(nu), ad.constant(alpha), ad.constant(beta),
            ad.constant(y), evidence_reg=0.01, weights=ad.constant(np.full((3, 1), 1.0 / 3)),
        )
        reg = 0.01 * np.mean(np.abs(y - gamma) * (2 * nu + alpha))
        assert loss.item() == pytest.approx(base + reg, rel=1e-12)

    def test_constraint_violation_raises(self):
        with pytest.raises(ad.DomainError):
            nig_nll_values(np.array([0.0]), [0.0], [2.0], [1.0], np.array([1.0]))
        with pytest.raises(ad.DomainError):
            nig_nll_values(np.array([0.0]), [1.0], [1.0], [1.0], np.array([1.0]))


class TestUncertainty:
    def test_unit_example(self):
        ev = EvidentialOutput(gamma=[0.0], nu=[1.0], alpha_nig=[2.0], beta=[1.0])
        epi, ale = ev.epistemic, ev.aleatoric
        assert epi[0] == pytest.approx(1.0) and ale[0] == pytest.approx(1.0)

    def test_large_evidence_kills_epistemic(self):
        ev = EvidentialOutput(gamma=[0.0], nu=[1e9], alpha_nig=[2.0], beta=[1.0])
        epi, ale = ev.epistemic, ev.aleatoric
        assert epi[0] < 1e-8 and ale[0] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.01, 100),
        st.floats(1.01, 50),
        st.floats(0.01, 100),
    )
    def test_epistemic_is_aleatoric_over_nu(self, nu, alpha, beta):
        ev = EvidentialOutput(gamma=[0.0], nu=[nu], alpha_nig=[alpha], beta=[beta])
        assert ev.epistemic[0] == pytest.approx(ev.aleatoric[0] / nu, rel=1e-12)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ad.DomainError):
            EvidentialOutput(gamma=[0.0], nu=[1.0], alpha_nig=[1.0], beta=[1.0])

    @pytest.mark.parametrize("field", ["gamma", "nu", "alpha_nig", "beta"])
    def test_non_finite_rejected(self, field):
        for bad in (np.nan, np.inf):
            params = dict(gamma=[0.0, 0.0], nu=[1.0, 1.0], alpha_nig=[2.0, 2.0], beta=[1.0, 1.0])
            params[field] = [1.5, bad]
            with pytest.raises(ad.DomainError, match="finite"):
                EvidentialOutput(**params)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.DimensionError):
            EvidentialOutput(gamma=[0.0, 1.0], nu=[1.0], alpha_nig=[2.0], beta=[1.0])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        params = {
            "w1": ad.parameter(rng.normal(size=(7, 3))),
            "b": ad.parameter(rng.normal(size=(1, 3))),
        }
        meta = {"layers": 3, "scaler": {"mean": 51.2, "std": 7.9}}
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, meta)
        back, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for name, p in params.items():
            assert np.array_equal(back[name].values, p.values)
            assert back[name].requires_grad

    def test_writes_are_byte_identical(self, tmp_path, rng):
        params = {"w": ad.parameter(rng.normal(size=(4, 4)))}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, params, {"k": 1})
        save_checkpoint(p2, params, {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # version 1 named each diffusion weight after the opposite direction
        header = json.dumps({"version": 1, "arrays": [], "meta": {}}).encode()
        path = tmp_path / "v1.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 1, len(header)) + header)
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)


def checkpoint_bytes(arrays, payload, meta=None):
    """A version-2 file from hand-written array specs and payload bytes."""
    header = json.dumps({"version": 2, "arrays": arrays, "meta": meta or {}}).encode()
    return MAGIC + struct.pack("<II", 2, len(header)) + header + payload


class TestCorruptCheckpoint:
    @pytest.fixture
    def good(self, tmp_path, rng):
        path = tmp_path / "good.bin"
        save_checkpoint(path, {"w": ad.parameter(rng.normal(size=(3, 2)))}, {"k": 1})
        return path.read_bytes()

    @pytest.mark.parametrize(
        "cut, match",
        [(6, "preamble"), (13, "not JSON"), (-1, "runs past"), (-48, "runs past")],
        ids=["preamble", "header", "payload-byte", "whole-payload"],
    )
    def test_truncated_file(self, tmp_path, good, cut, match):
        path = tmp_path / "cut.bin"
        path.write_bytes(good[:cut])
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "garbled.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 2, 4) + b"\xff{]x")
        with pytest.raises(CheckpointError, match="not JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            {"version": 2, "meta": {}},
            {"version": 2, "arrays": [{"name": "w"}], "meta": {}},
            [1, 2],
        ],
        ids=["no-arrays", "no-offset", "not-an-object"],
    )
    def test_json_header_of_wrong_structure(self, tmp_path, header):
        raw = json.dumps(header).encode()
        path = tmp_path / "odd.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 2, len(raw)) + raw)
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_nbytes_disagrees_with_shape(self, tmp_path):
        spec = {"name": "w", "shape": [2, 2], "offset": 0, "nbytes": 24}
        path = tmp_path / "short_array.bin"
        path.write_bytes(checkpoint_bytes([spec], np.zeros(4).tobytes()))
        with pytest.raises(CheckpointError, match="24 bytes for shape"):
            load_checkpoint(path)

    def test_negative_shape_entry_names_the_array(self, tmp_path):
        # the entries' product, 8, agrees with nbytes: numpy alone would
        # fail in reshape with "can only specify one unknown dimension"
        spec = {"name": "w", "shape": [-2, -4], "offset": 0, "nbytes": 64}
        path = tmp_path / "negative_shape.bin"
        path.write_bytes(checkpoint_bytes([spec], np.zeros(8).tobytes()))
        with pytest.raises(CheckpointError, match=r"array 'w' has a malformed shape \[-2, -4\]"):
            load_checkpoint(path)

    def test_fractional_shape_entry_names_the_array(self, tmp_path):
        # 20 bytes for shape [2.5] agree by product; numpy alone would fail
        # with "buffer size must be a multiple of element size"
        spec = {"name": "w", "shape": [2.5], "offset": 0, "nbytes": 20}
        path = tmp_path / "fractional_shape.bin"
        path.write_bytes(checkpoint_bytes([spec], np.zeros(3).tobytes()))
        with pytest.raises(CheckpointError, match=r"array 'w' has a malformed shape \[2.5\]"):
            load_checkpoint(path)

    def test_negative_offset(self, tmp_path):
        spec = {"name": "w", "shape": [1], "offset": -8, "nbytes": 8}
        path = tmp_path / "negative.bin"
        path.write_bytes(checkpoint_bytes([spec], np.zeros(2).tobytes()))
        with pytest.raises(CheckpointError, match="runs past"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter(self, tmp_path, bad):
        values = np.ones((2, 2))
        values[1, 0] = bad
        path = tmp_path / "nonfinite.bin"
        save_checkpoint(path, {"w": ad.parameter(values)}, {})
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)


class TestModelConfig:
    @pytest.mark.parametrize("hidden", [0, -3])
    def test_hidden_dim_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden_dim"):
            ModelConfig(hidden_dim=hidden)
