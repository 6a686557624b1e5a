"""Bitwise oracles for the fused training ops.

``model.dgcn_layer``, ``model.nig_link``, ``model.nig_nll`` and
``model.total_loss`` are single tape ops with hand-written backward
passes, and ``Adam`` updates one flat buffer. Each must give the same bits
as the composite form it replaces: the reference versions below are built
from generic tape ops (``ad.matmul`` and those of ``oracle_ops``; for Adam,
a per-parameter loop), and every value and gradient is compared with
``tobytes()``.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from gapcast import autodiff as ad
from gapcast.autodiff import Adam, DomainError, Tape
from gapcast.graph import normalize
from gapcast.model import (
    EVIDENCE_FLOOR,
    EVIDENCE_REG,
    ForwardPass,
    ModelConfig,
    dgcn_layer,
    init_params,
    nig_link,
    nig_nll,
    total_loss,
)

from oracle_ops import (
    absval,
    add,
    add_scalar,
    hadamard,
    lgamma,
    log,
    reduce_sum,
    relu,
    scale,
    slice_cols,
    softplus,
    square,
    sub,
    weighted_mean,
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- NIG loss ------------------------------------------------------------


def composite_nig_nll(gamma, nu, alpha, beta, target, evidence_reg, weights):
    """The NIG loss as separate tape ops, one op per arithmetic step, with
    the evidence penalty weighted by ``evidence_reg``. ``target`` and
    ``weights`` are arrays."""
    target, weights = ad.constant(target), ad.constant(weights)
    resid = sub(target, gamma)
    omega = scale(hadamard(beta, add_scalar(nu, 1.0)), 2.0)
    nll = add(
        add(
            sub(
                scale(log(nu), -0.5),
                hadamard(alpha, log(omega)),
            ),
            hadamard(
                add_scalar(alpha, 0.5),
                log(add(hadamard(nu, square(resid)), omega)),
            ),
        ),
        sub(lgamma(alpha), lgamma(add_scalar(alpha, 0.5))),
    )
    nll = add_scalar(nll, 0.5 * math.log(math.pi))
    loss = weighted_mean(nll, weights)
    penalty = hadamard(absval(resid), add(scale(nu, 2.0), alpha))
    return add(loss, scale(weighted_mean(penalty, weights), evidence_reg))


def nig_inputs(rng, n):
    gamma = rng.normal(size=(n, 1)) * 3.0
    nu = rng.uniform(1e-3, 5.0, (n, 1))
    alpha = 1.0 + rng.uniform(1e-3, 4.0, (n, 1))
    beta = rng.uniform(1e-3, 5.0, (n, 1))
    target = rng.normal(size=(n, 1)) * 3.0
    weights = rng.uniform(0.0, 1.0, (n, 1))
    return gamma, nu, alpha, beta, target, weights / weights.sum()


def composite_run(arrays, evidence_reg, upstream):
    """Loss value and the gradients of gamma, nu, alpha and beta of the
    composite loss, with the loss scaled by ``upstream`` so that its last
    op sees that upstream gradient."""
    gamma, nu, alpha, beta = (ad.parameter(a.copy()) for a in arrays[:4])
    with Tape() as tape:
        loss = composite_nig_nll(gamma, nu, alpha, beta, arrays[4], evidence_reg, arrays[5])
        grads = tape.backward(scale(loss, upstream))
    return loss.values, [grads[t] for t in (gamma, nu, alpha, beta)]


def fused_run(arrays, upstream):
    """As ``composite_run``, for ``nig_nll`` on the (n, 4) record: its
    gradient's columns are those of gamma, nu, alpha and beta."""
    nig = ad.parameter(np.hstack(arrays[:4]))
    with Tape() as tape:
        loss = nig_nll(nig, *arrays[4:])
        grads = tape.backward(scale(loss, upstream))
    return loss.values, [grads[nig][:, j : j + 1] for j in range(4)]


@pytest.mark.parametrize("evidence_reg", [EVIDENCE_REG])
def test_nig_nll_matches_composite_bitwise(evidence_reg):
    rng = np.random.default_rng(11)
    for _ in range(60):
        arrays = nig_inputs(rng, int(rng.integers(1, 40)))
        upstream = float(rng.choice([1.0, -0.37, 2.5e3]))
        want = composite_run(arrays, evidence_reg, upstream)
        got = fused_run(arrays, upstream)
        assert same_bits(got[0], want[0])
        for g, w in zip(got[1], want[1]):
            assert same_bits(g, w)


def test_nig_nll_is_one_tape_op():
    arrays = nig_inputs(np.random.default_rng(0), 5)
    with Tape() as tape:
        nig_nll(ad.parameter(np.hstack(arrays[:4])), *arrays[4:])
    assert len(tape.nodes) == 1


def test_nig_nll_keeps_the_domain_checks():
    arrays = nig_inputs(np.random.default_rng(0), 3)
    for bad, message in ((1, "log"), (2, "lgamma")):
        nig = np.hstack(arrays[:4])
        nig[1, bad] = -1.0
        with pytest.raises(DomainError, match=message):
            nig_nll(ad.constant(nig), *arrays[4:])


def test_nig_nll_refuses_a_record_of_other_width():
    arrays = nig_inputs(np.random.default_rng(0), 3)
    with pytest.raises(ad.DimensionError, match="nig_nll takes"):
        nig_nll(ad.constant(np.hstack(arrays[:3])), *arrays[4:])


# -- NIG link ------------------------------------------------------------


def composite_nig_link(raw, head_b):
    """The bias add, column slices, softplus and floors as separate tape
    ops: the four columns gamma, nu, alpha, beta."""
    pre = add(raw, head_b)
    floors = (EVIDENCE_FLOOR, 1.0 + EVIDENCE_FLOOR, EVIDENCE_FLOOR)
    return [slice_cols(pre, 0, 1)] + [
        add_scalar(softplus(slice_cols(pre, j, j + 1)), floor)
        for j, floor in zip((1, 2, 3), floors)
    ]


def link_run(fused, raw_values, bias_values, probe):
    """The four columns and the gradients of raw and bias under the linear
    loss ``probe``, whose entries reach each column as its gradient."""
    raw, head_b = ad.parameter(raw_values.copy()), ad.parameter(bias_values.copy())
    with Tape() as tape:
        if fused:
            out = nig_link(raw, head_b)
            columns = [out.values[:, j : j + 1] for j in range(4)]
            loss = reduce_sum(hadamard(out, ad.constant(probe)))
        else:
            out = composite_nig_link(raw, head_b)
            columns = [c.values for c in out]
            terms = [reduce_sum(hadamard(c, ad.constant(probe[:, j : j + 1])))
                     for j, c in enumerate(out)]
            loss = add(add(terms[0], terms[1]), add(terms[2], terms[3]))
    grads = tape.backward(loss)
    return columns, grads[raw], grads[head_b]


def test_nig_link_matches_composite_bitwise():
    rng = np.random.default_rng(12)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        raw = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-2, 3)
        raw[rng.uniform(size=raw.shape) < 0.1] = rng.choice([-800.0, 0.0, 800.0])
        probe = rng.normal(size=(n, 4))
        probe[rng.uniform(size=probe.shape) < 0.3] = -0.0  # a signed zero gradient
        bias = rng.normal(size=(1, 4))
        want = link_run(False, raw, bias, probe)
        got = link_run(True, raw, bias, probe)
        for g, w in zip(got[0], want[0]):
            assert same_bits(g, w), trial
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2]), trial


def test_nig_link_is_one_tape_op_with_the_constraints():
    rng = np.random.default_rng(0)
    with Tape() as tape:
        out = nig_link(ad.parameter(rng.normal(size=(5, 4)) * 1e3), ad.parameter(np.zeros((1, 4))))
    assert len(tape.nodes) == 1
    assert (out.values[:, 1] > 0).all() and (out.values[:, 2] > 1).all()
    assert (out.values[:, 3] > 0).all()


# -- recovery and total loss ---------------------------------------------


def composite_total_loss(j_pre, fwd, params, weights, loss_alpha):
    """The recovery head and loss as separate tape ops, with the recovery
    loss returned as an array, as ``total_loss`` returns it."""
    recovery = add(ad.matmul(fwd.hidden, params["rec_w"]), params["rec_b"])
    j_rec = weighted_mean(square(sub(recovery, fwd.h0)), ad.constant(weights))
    return add(j_pre, scale(j_rec, loss_alpha)), j_rec.values


def total_run(total_fn, seed, history, loss_alpha, upstream):
    """Total and recovery loss values, and the gradients of j_pre, the
    hidden state, rec_w and rec_b."""
    rng = np.random.default_rng(seed)
    n, hidden_dim = int(rng.integers(1, 12)), 5
    params = init_params(ModelConfig(hidden_dim=hidden_dim), history, rng)
    j_pre = ad.parameter(rng.normal(size=(1, 1)))
    hidden = ad.parameter(rng.normal(size=(n, hidden_dim)))
    h0 = rng.normal(size=(n, history)) * (rng.uniform(size=(n, 1)) < 0.7)
    weights = rng.uniform(0.0, 1.0, (n, 1)) / n
    fwd = ForwardPass(nig=ad.constant(np.zeros((n, 4))), hidden=hidden, h0=ad.constant(h0))
    with Tape() as tape:
        total, j_rec = total_fn(j_pre, fwd, params, weights, loss_alpha)
        grads = tape.backward(scale(total, upstream))
    wanted = (j_pre, hidden, params["rec_w"], params["rec_b"])
    return [total.values, j_rec], [grads.get(t) for t in wanted]


@pytest.mark.parametrize("history", [1, 3, 24])
@pytest.mark.parametrize("loss_alpha", [0.0, 0.7, 1.0])
def test_total_loss_matches_composite_bitwise(history, loss_alpha):
    for seed in range(20):
        upstream = (1.0, -0.37, 2.5e3)[seed % 3]
        want = total_run(composite_total_loss, seed, history, loss_alpha, upstream)
        got = total_run(total_loss, seed, history, loss_alpha, upstream)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert same_bits(g, w), seed


def test_total_loss_is_one_tape_op_and_reports_a_constant_recovery_loss():
    rng = np.random.default_rng(0)
    params = init_params(ModelConfig(hidden_dim=3), 2, rng)
    fwd = ForwardPass(
        nig=ad.constant(np.zeros((4, 4))),
        hidden=ad.parameter(rng.normal(size=(4, 3))),
        h0=ad.constant(rng.normal(size=(4, 2))),
    )
    with Tape() as tape:
        _, j_rec = total_loss(ad.parameter([[1.0]]), fwd, params, np.full((4, 1), 0.25), 0.5)
    assert len(tape.nodes) == 1
    assert isinstance(j_rec, np.ndarray) and j_rec.shape == (1, 1)


# -- model tail ----------------------------------------------------------


def tail_run(fused, seed, evidence_reg, loss_alpha):
    """The evidential head, NIG loss, recovery head and total loss after the
    last diffusion layer, as the fused ops or as the generic ops they
    replace: values of j_pre, j_rec and the total, and the gradients of the
    hidden state and of every head parameter."""
    rng = np.random.default_rng(seed)
    n, history, hidden_dim = int(rng.integers(1, 25)), 4, 6
    params = init_params(ModelConfig(hidden_dim=hidden_dim), history, rng)
    params["head_b"].values[...] = rng.normal(size=(1, 4))
    hidden = ad.parameter(rng.normal(size=(n, hidden_dim)))
    h0 = ad.constant(rng.normal(size=(n, history)))
    target = rng.normal(size=(n, 1))
    weights = np.full((n, 1), 1.0 / n)
    with Tape() as tape:
        raw = ad.matmul(hidden, params["head_w"])
        if fused:
            fwd = ForwardPass(nig=nig_link(raw, params["head_b"]), hidden=hidden, h0=h0)
            j_pre = nig_nll(fwd.nig, target, weights)
            total, j_rec = total_loss(j_pre, fwd, params, weights, loss_alpha)
        else:
            columns = composite_nig_link(raw, params["head_b"])
            j_pre = composite_nig_nll(*columns, target, evidence_reg, weights)
            fwd = ForwardPass(nig=None, hidden=hidden, h0=h0)
            total, j_rec = composite_total_loss(j_pre, fwd, params, weights, loss_alpha)
    grads = tape.backward(total)
    names = ("head_w", "head_b", "rec_w", "rec_b")
    return (
        [j_pre.values, j_rec, total.values],
        [grads[hidden], *(grads[params[k]] for k in names)],
        len(tape.nodes),
    )


@pytest.mark.parametrize("evidence_reg", [EVIDENCE_REG])
@pytest.mark.parametrize("loss_alpha", [0.0, 1.0])
def test_model_tail_matches_composite_bitwise(evidence_reg, loss_alpha):
    for seed in range(20):
        want = tail_run(False, seed, evidence_reg, loss_alpha)
        got = tail_run(True, seed, evidence_reg, loss_alpha)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert same_bits(g, w), seed
        assert got[2] == 4  # matmul, link, NIG loss, total


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
        z_next = sub(scale(operator_product(op, op_t, z_cur), 2.0), z_prev)
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
        part = add(
            ad.matmul(terms_f[k - 1], params[f"theta_f_l{layer}_k{k}"]),
            ad.matmul(terms_b[k - 1], params[f"theta_b_l{layer}_k{k}"]),
        )
        total = part if total is None else add(total, part)
    if layer == 2:
        return add(relu(total), h)
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
        grads = tape.backward(reduce_sum(hadamard(out, probe)))
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
            grads = tape.backward(reduce_sum(out))
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

