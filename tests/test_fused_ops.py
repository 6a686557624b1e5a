"""Bitwise oracles for the fused training ops.

``model.dgcn_layer`` and ``model.nig_nll`` are single tape ops with
hand-written backward passes, and ``Adam`` updates one flat buffer. Each
must give the same bits as the composite form it replaces: the reference
versions below are built from ``gapcast.autodiff`` ops (and, for Adam, a
per-parameter loop), and every value and gradient is compared with
``tobytes()``.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from gapcast import autodiff as ad
from gapcast.autodiff import Adam, DomainError, Tape
from gapcast.graph import normalize
from gapcast.model import ModelConfig, dgcn_layer, init_params, nig_nll, weighted_mean

from oracle_ops import absval, lgamma, log, relu


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- NIG loss ------------------------------------------------------------


def composite_nig_nll(gamma, nu, alpha, beta, target, evidence_reg, weights):
    """The NIG loss as separate tape ops, one op per arithmetic step."""
    resid = ad.sub(target, gamma)
    omega = ad.scale(ad.hadamard(beta, ad.add_scalar(nu, 1.0)), 2.0)
    nll = ad.add(
        ad.add(
            ad.sub(
                ad.scale(log(nu), -0.5),
                ad.hadamard(alpha, log(omega)),
            ),
            ad.hadamard(
                ad.add_scalar(alpha, 0.5),
                log(ad.add(ad.hadamard(nu, ad.square(resid)), omega)),
            ),
        ),
        ad.sub(lgamma(alpha), lgamma(ad.add_scalar(alpha, 0.5))),
    )
    nll = ad.add_scalar(nll, 0.5 * math.log(math.pi))
    loss = weighted_mean(nll, weights)
    if evidence_reg:
        penalty = ad.hadamard(absval(resid), ad.add(ad.scale(nu, 2.0), alpha))
        loss = ad.add(loss, ad.scale(weighted_mean(penalty, weights), evidence_reg))
    return loss


def nig_inputs(rng, n):
    gamma = rng.normal(size=(n, 1)) * 3.0
    nu = rng.uniform(1e-3, 5.0, (n, 1))
    alpha = 1.0 + rng.uniform(1e-3, 4.0, (n, 1))
    beta = rng.uniform(1e-3, 5.0, (n, 1))
    target = rng.normal(size=(n, 1)) * 3.0
    weights = rng.uniform(0.0, 1.0, (n, 1))
    return gamma, nu, alpha, beta, target, weights / weights.sum()


def nig_run(loss_fn, arrays, evidence_reg, upstream):
    """Loss value and the gradients of gamma, nu, alpha and beta, with the
    loss scaled by ``upstream`` so the op sees that upstream gradient."""
    gamma, nu, alpha, beta = (ad.parameter(a.copy()) for a in arrays[:4])
    target, weights = (ad.constant(a) for a in arrays[4:])
    with Tape() as tape:
        loss = loss_fn(gamma, nu, alpha, beta, target, evidence_reg, weights)
        grads = tape.backward(ad.scale(loss, upstream))
    return loss.values, [grads.get(t) for t in (gamma, nu, alpha, beta)]


@pytest.mark.parametrize("evidence_reg", [0.0, 0.01, 0.7])
def test_nig_nll_matches_composite_bitwise(evidence_reg):
    rng = np.random.default_rng(11)
    for _ in range(60):
        arrays = nig_inputs(rng, int(rng.integers(1, 40)))
        upstream = float(rng.choice([1.0, -0.37, 2.5e3]))
        want = nig_run(composite_nig_nll, arrays, evidence_reg, upstream)
        got = nig_run(nig_nll, arrays, evidence_reg, upstream)
        assert same_bits(got[0], want[0])
        for g, w in zip(got[1], want[1]):
            assert same_bits(g, w)


def test_nig_nll_is_one_tape_op():
    arrays = nig_inputs(np.random.default_rng(0), 5)
    with Tape() as tape:
        nig_nll(*(ad.parameter(a) for a in arrays[:4]), ad.constant(arrays[4]), 0.01,
                ad.constant(arrays[5]))
    assert len(tape.nodes) == 1


def test_nig_nll_keeps_the_domain_checks():
    arrays = [ad.constant(a) for a in nig_inputs(np.random.default_rng(0), 3)]
    gamma, nu, alpha, beta, target, weights = arrays
    for bad, message in ((1, "log"), (2, "lgamma")):
        args = list(arrays)
        args[bad] = ad.constant(np.array([[1.0], [-1.0], [1.0]]))
        with pytest.raises(DomainError, match=message):
            nig_nll(*args[:5], 0.01, args[5])


def test_nig_nll_refuses_a_differentiable_target():
    arrays = nig_inputs(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="gamma, nu, alpha and beta only"):
        nig_nll(*(ad.constant(a) for a in arrays[:4]), ad.parameter(arrays[4]), 0.01,
                ad.constant(arrays[5]))


# -- diffusion layer -----------------------------------------------------


def operator_product(op, op_t, h):
    """``op @ h`` for a constant matrix ``op`` as one tape op; its backward
    pass multiplies by ``op_t``, the transpose."""
    return ad.record(op @ h.values, (h,), lambda g: (op_t @ g,))


def composite_chebyshev_terms(op, op_t, h, order):
    """The Chebyshev recursion Z_k = 2 op Z_{k-1} - Z_{k-2} as tape ops."""
    z_prev, z_cur = h, operator_product(op, op_t, h)
    terms = [z_cur]
    for _ in range(2, order + 1):
        z_next = ad.sub(ad.scale(operator_product(op, op_t, z_cur), 2.0), z_prev)
        terms.append(z_next)
        z_prev, z_cur = z_cur, z_next
    return terms


def composite_dgcn_layer(h, ops, layer, params, cfg):
    """The diffusion layer as separate tape ops: the Chebyshev recursion
    through ``operator_product``, ``scale`` and ``sub``, then matmuls and
    adds. ``ops`` is the pair (P, P.T), as ``dgcn_layer`` takes it."""
    p, p_t = ops
    terms_f = composite_chebyshev_terms(p, p_t, h, cfg.cheb_order)
    terms_b = composite_chebyshev_terms(p_t, p, h, cfg.cheb_order)
    total = None
    for k in range(1, cfg.cheb_order + 1):
        part = ad.add(
            ad.matmul(terms_f[k - 1], params[f"theta_f_l{layer}_k{k}"]),
            ad.matmul(terms_b[k - 1], params[f"theta_b_l{layer}_k{k}"]),
        )
        total = part if total is None else ad.add(total, part)
    if layer == 2:
        return ad.add(relu(total), h)
    return total


def directed_transition(rng, n):
    """A random directed kernel graph, so forward and backward differ."""
    dense = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
    np.fill_diagonal(dense, 0.0)
    p = normalize(sparse.csr_array(dense))
    assert (p != p.T).nnz
    return p


def layer_run(layer_fn, rng_seed, order, layer, h_grad):
    """Output and every gradient of one layer under a random linear loss."""
    rng = np.random.default_rng(rng_seed)
    n, width, hidden = 7, 3, 4
    p = directed_transition(rng, n)
    cfg = ModelConfig(hidden_dim=hidden, layers=3, cheb_order=order)
    params = init_params(cfg, width, rng)
    h_width = width if layer == 1 else hidden
    make = ad.parameter if h_grad else ad.constant
    h = make(rng.normal(size=(n, h_width)))
    probe = ad.constant(rng.normal(size=(n, hidden)))
    with Tape() as tape:
        out = layer_fn(h, (p, p.T), layer, params, cfg)
        grads = tape.backward(ad.reduce_sum(ad.hadamard(out, probe)))
    return out.values, [grads.get(t) for t in [h, *params.values()]]


@pytest.mark.parametrize("order", [1, 2, 3])
# layer 2's residual is the same tensor as its input
@pytest.mark.parametrize("layer", [1, 2, 3], ids=["1-None", "2-same", "3-None"])
@pytest.mark.parametrize("h_grad", [False, True])
def test_dgcn_layer_matches_composite_bitwise(order, layer, h_grad):
    for seed in range(3):
        want = layer_run(composite_dgcn_layer, seed, order, layer, h_grad)
        got = layer_run(dgcn_layer, seed, order, layer, h_grad)
        assert same_bits(got[0], want[0])
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            assert (g is None and w is None) or same_bits(g, w)


def test_dgcn_layer_is_one_tape_op():
    rng = np.random.default_rng(0)
    cfg = ModelConfig(hidden_dim=4, layers=2, cheb_order=3)
    params = init_params(cfg, 4, rng)
    h = ad.parameter(rng.normal(size=(5, 4)))
    with Tape() as tape:
        p = directed_transition(rng, 5)
        dgcn_layer(h, (p, p.T), 2, params, cfg)
    assert len(tape.nodes) == 1


def test_dgcn_layer_dense_operator_matches_composite():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(hidden_dim=3, layers=3, cheb_order=2)
    params = init_params(cfg, 3, rng)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    h_values = rng.normal(size=(4, 3))
    runs = []
    for fn in (composite_dgcn_layer, dgcn_layer):
        h = ad.parameter(h_values.copy())
        with Tape() as tape:
            out = fn(h, (a, a.T), 3, params, cfg)
            grads = tape.backward(ad.reduce_sum(out))
        runs.append((out.values, grads[h], grads[params["theta_b_l3_k2"]]))
    for got, want in zip(*runs):
        assert same_bits(got, want)


# -- Adam ----------------------------------------------------------------


def reference_adam_step(state, params, lr):
    """One step of the per-parameter Adam loop the flat buffer replaces."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - ad.ADAM_BETA1**t
    bc2 = 1.0 - ad.ADAM_BETA2**t
    for name, (values, grad) in params.items():
        m, v = state["m"][name], state["v"][name]
        m *= ad.ADAM_BETA1
        v *= ad.ADAM_BETA2
        if grad is not None:
            m += (1.0 - ad.ADAM_BETA1) * grad
            v += (1.0 - ad.ADAM_BETA2) * (grad * grad)
        values -= lr * (m / bc1) / (np.sqrt(v / bc2) + ad.ADAM_EPS)


def test_flat_adam_matches_per_parameter_loop():
    rng = np.random.default_rng(4)
    shapes = {"a": (3, 5), "b": (1, 4), "c": (6, 1), "d": (2, 2)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    tensors = {k: ad.parameter(v.copy()) for k, v in start.items()}
    opt = Adam(tensors, lr=3e-3)
    ref_values = {k: v.copy() for k, v in start.items()}
    state = {"t": 0, "m": {k: np.zeros(s) for k, s in shapes.items()},
             "v": {k: np.zeros(s) for k, s in shapes.items()}}
    for step in range(20):
        grads = {
            k: None if (step + i) % 3 == 0 else rng.normal(size=s) * 10.0 ** rng.integers(-4, 3)
            for i, (k, s) in enumerate(shapes.items())
        }
        opt.step({tensors[k]: g.copy() for k, g in grads.items() if g is not None})
        reference_adam_step(state, {k: (ref_values[k], grads[k]) for k in shapes}, 3e-3)
        for k in shapes:
            assert same_bits(tensors[k].values, ref_values[k]), (step, k)
    assert opt.t == 20


def test_adam_parameters_are_views_of_one_buffer():
    p, q = ad.parameter(np.ones((2, 3))), ad.parameter(np.zeros((1, 2)))
    Adam({"p": p, "q": q}, lr=0.1)
    assert p.values.base is not None and p.values.base is q.values.base

