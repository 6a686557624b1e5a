import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapcast import autodiff as ad
from gapcast.autodiff import Adam, DimensionError, DomainError, Tape, Tensor

from conftest import finite_difference_gradient, relative_error
from oracle_ops import absval, lgamma, log, relu


def test_matmul_identity():
    m = ad.constant([[1.5, -2.0], [3.0, 0.25]])
    out = ad.matmul(ad.constant(np.eye(2)), m)
    np.testing.assert_array_equal(out.values, m.values)


def test_matmul_hand_value():
    out = ad.matmul(ad.constant([[1, 2], [3, 4]]), ad.constant([[1], [1]]))
    np.testing.assert_array_equal(out.values, [[3], [7]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_matmul_gradcheck_sum(rng):
    a = ad.parameter(rng.uniform(-2, 2, (3, 3)))
    b = ad.parameter(rng.uniform(-2, 2, (3, 3)))

    with Tape() as tape:
        loss = ad.reduce_sum(ad.matmul(a, b))
    grads = tape.backward(loss)

    for p in (a, b):

        def f(p=p):
            return ad.reduce_sum(ad.matmul(a, b)).item()

        numeric = finite_difference_gradient(f, p.values)
        assert relative_error(grads[p], numeric) < 1e-4


def test_hadamard_identity_and_annihilator(rng):
    m = ad.constant(rng.normal(size=(3, 4)))
    np.testing.assert_array_equal(ad.hadamard(m, ad.constant(np.ones((3, 4)))).values, m.values)
    np.testing.assert_array_equal(
        ad.hadamard(m, ad.constant(np.zeros((3, 4)))).values, np.zeros((3, 4))
    )


def test_hadamard_gradcheck(rng):
    a = ad.parameter(rng.uniform(-2, 2, (3, 3)))
    b = ad.parameter(rng.uniform(-2, 2, (3, 3)))
    with Tape() as tape:
        loss = ad.reduce_sum(ad.hadamard(a, b))
    grads = tape.backward(loss)
    numeric = finite_difference_gradient(lambda: ad.reduce_sum(ad.hadamard(a, b)).item(), a.values)
    assert relative_error(grads[a], numeric) < 1e-4


def test_hadamard_column_broadcast(rng):
    a = ad.parameter(rng.uniform(-2, 2, (4, 3)))
    mask = ad.parameter(rng.uniform(0.5, 2, (4, 1)))
    with Tape() as tape:
        loss = ad.reduce_sum(ad.hadamard(a, mask))
    grads = tape.backward(loss)
    numeric = finite_difference_gradient(
        lambda: ad.reduce_sum(ad.hadamard(a, mask)).item(), mask.values
    )
    assert relative_error(grads[mask], numeric) < 1e-4


def test_elementwise_trivials():
    assert relu(ad.constant([[-1.0]])).values[0, 0] == 0.0
    assert relu(ad.constant([[2.0]])).values[0, 0] == 2.0
    assert ad.softplus(ad.constant([[0.0]])).values[0, 0] == pytest.approx(math.log(2), abs=1e-12)
    # overflow-safe region returns the input itself
    assert ad.softplus(ad.constant([[40.0]])).values[0, 0] == pytest.approx(40.0, abs=1e-12)


def test_square_derivative_at_3():
    x = ad.parameter([[3.0]])
    with Tape() as tape:
        loss = ad.reduce_sum(ad.square(x))
    assert tape.backward(loss)[x][0, 0] == pytest.approx(6.0)


def test_backward_sum_gives_ones():
    w = ad.parameter(np.arange(4.0).reshape(2, 2))
    with Tape() as tape:
        loss = ad.reduce_sum(w)
    np.testing.assert_array_equal(tape.backward(loss)[w], np.ones((2, 2)))


def test_backward_hadamard_square_gives_2w():
    w = ad.parameter([[1.0, -2.0], [0.5, 3.0]])
    with Tape() as tape:
        loss = ad.reduce_sum(ad.hadamard(w, w))
    np.testing.assert_allclose(tape.backward(loss)[w], 2 * w.values)


def test_backward_requires_scalar():
    w = ad.parameter(np.ones((2, 2)))
    with Tape() as tape:
        out = ad.scale(w, 2.0)
    with pytest.raises(DimensionError):
        tape.backward(out)


def test_backward_returns_exactly_the_leaf_gradients(rng):
    a = ad.parameter(rng.normal(size=(3, 2)))
    b = ad.parameter(rng.normal(size=(2, 2)))
    unused = ad.parameter(rng.normal(size=(2, 2)))
    x = ad.constant(rng.normal(size=(3, 2)))
    with Tape() as tape:
        hidden = ad.matmul(a, b)
        loss = ad.reduce_sum(ad.hadamard(ad.add(hidden, hidden), x))
        ad.scale(unused, 2.0)  # recorded, but the loss does not reach it
    grads = tape.backward(loss)
    assert set(grads) == {a, b}
    assert not {node.output for node in tape.nodes} & set(grads)
    assert x not in grads and unused not in grads
    assert all(grads[t].shape == t.shape for t in (a, b))


def test_backward_twice_returns_bitwise_equal_gradients(rng):
    w = ad.parameter(rng.normal(size=(3, 3)))
    v = ad.parameter(rng.normal(size=(3, 1)))
    with Tape() as tape:
        h = ad.matmul(w, w)
        loss = ad.reduce_sum(ad.softplus(ad.hadamard(ad.add(h, w), v)))
    first = tape.backward(loss)
    snapshot = {t: g.copy() for t, g in first.items()}
    second = tape.backward(loss)
    assert set(first) == set(second) == {w, v}
    for t in (w, v):
        assert first[t].tobytes() == second[t].tobytes() == snapshot[t].tobytes()


UNARY_OPS = {
    "relu": (relu, (-2.0, 2.0), 1e-3),
    "softplus": (ad.softplus, (-2.0, 2.0), 0.0),
    "log": (log, (0.1, 2.0), 0.0),
    "square": (ad.square, (-2.0, 2.0), 0.0),
    "absval": (absval, (-2.0, 2.0), 1e-3),
    "lgamma": (lgamma, (0.2, 2.0), 0.0),
    "scale": (lambda t: ad.scale(t, -1.7), (-2.0, 2.0), 0.0),
    "add_scalar": (lambda t: ad.add_scalar(t, 0.3), (-2.0, 2.0), 0.0),
    "slice_cols": (lambda t: ad.slice_cols(t, 1, 3), (-2.0, 2.0), 0.0),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_gradcheck_unary_ops_50_trials(name):
    op, (lo, hi), margin = UNARY_OPS[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(50):
        vals = rng.uniform(lo, hi, size=(3, 4))
        if margin:
            vals = vals + np.sign(vals) * margin  # keep away from kinks
        x = ad.parameter(vals)
        weights = ad.constant(rng.normal(size=op(x).shape))

        def f():
            return ad.reduce_sum(ad.hadamard(op(x), weights)).item()

        with Tape() as tape:
            loss = ad.reduce_sum(ad.hadamard(op(x), weights))
        grads = tape.backward(loss)
        numeric = finite_difference_gradient(f, x.values)
        assert relative_error(grads[x], numeric) < 1e-4, name


BINARY_OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "hadamard": lambda a, b: ad.hadamard(a, b),
    "matmul": lambda a, b: ad.matmul(a, b),
}


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
def test_gradcheck_binary_ops_50_trials(name):
    op = BINARY_OPS[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(50):
        a = ad.parameter(rng.uniform(-2, 2, size=(3, 3)))
        b = ad.parameter(rng.uniform(-2, 2, size=(3, 3)))
        weights = ad.constant(rng.normal(size=(3, 3)))

        def f():
            return ad.reduce_sum(ad.hadamard(op(a, b), weights)).item()

        with Tape() as tape:
            loss = ad.reduce_sum(ad.hadamard(op(a, b), weights))
        grads = tape.backward(loss)
        for p in (a, b):
            numeric = finite_difference_gradient(f, p.values)
            assert relative_error(grads[p], numeric) < 1e-4, name


def test_bias_add_broadcast_gradcheck(rng):
    a = ad.parameter(rng.uniform(-2, 2, (4, 3)))
    bias = ad.parameter(rng.uniform(-2, 2, (1, 3)))

    def f():
        return ad.reduce_sum(ad.square(ad.add(a, bias))).item()

    with Tape() as tape:
        loss = ad.reduce_sum(ad.square(ad.add(a, bias)))
    grads = tape.backward(loss)
    for p in (a, bias):
        numeric = finite_difference_gradient(f, p.values)
        assert relative_error(grads[p], numeric) < 1e-4


def test_log_domain_error():
    with pytest.raises(DomainError):
        log(ad.constant([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        lgamma(ad.constant([[-1.0]]))


def test_ops_not_recorded_without_tape():
    w = ad.parameter(np.ones((2, 2)))
    out = ad.scale(w, 2.0)
    assert out.requires_grad
    with Tape() as tape:
        pass
    assert tape.nodes == []


def test_backward_deterministic_bitwise(rng):
    def run():
        gen = np.random.default_rng(7)
        a = ad.parameter(gen.normal(size=(4, 4)))
        b = ad.parameter(gen.normal(size=(4, 4)))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.square(ad.matmul(relu(a), b)))
        grads = tape.backward(loss)
        return grads[a], grads[b]

    g1 = run()
    g2 = run()
    for x, y in zip(g1, g2):
        assert np.array_equal(x, y)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-50, 50)))
def test_no_nan_inf_on_finite_inputs(values):
    x = ad.constant(values)
    for out in (relu(x), ad.softplus(x), ad.square(x), absval(x), ad.scale(x, 2.0)):
        assert np.isfinite(out.values).all()
    pos = ad.constant(np.abs(values) + 0.1)
    assert np.isfinite(log(pos).values).all()
    assert np.isfinite(lgamma(pos).values).all()


def test_adam_zero_gradient_is_fixed_point():
    p = ad.parameter([[1.0, -2.0]])
    opt = Adam({"p": p}, lr=0.1)
    opt.step({})
    np.testing.assert_array_equal(p.values, [[1.0, -2.0]])


def test_adam_first_step_magnitude():
    p = ad.parameter([[1.0]])
    opt = Adam({"p": p}, lr=0.1)
    opt.step({p: np.array([[1.0]])})
    assert p.values[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adam_converges_on_quadratic():
    p = ad.parameter([[0.0]])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(200):
        with Tape() as tape:
            loss = ad.reduce_sum(ad.square(ad.add_scalar(p, -3.0)))
        opt.step(tape.backward(loss))
    assert abs(p.values[0, 0] - 3.0) < 0.05


def test_adam_missing_gradient_counts_as_zero():
    start = {"p": [[1.0, -2.0]], "q": [[0.5], [3.0]]}
    runs = []
    for explicit in (False, True):
        params = {k: ad.parameter(v) for k, v in start.items()}
        opt = Adam(params, lr=0.1)
        opt.step({params["p"]: np.array([[0.3, -1.0]]), params["q"]: np.array([[2.0], [-1.0]])})
        moved = params["q"].values.copy()
        for step in range(2):
            grads = {params["p"]: np.array([[0.3, -1.0]]) * (step + 2)}
            if explicit:
                grads[params["q"]] = np.zeros((2, 1))
            opt.step(grads)
        runs.append([p.values.tobytes() for p in params.values()])
    assert runs[0] == runs[1]
    assert runs[0][1] != moved.tobytes()  # the first step's moments still move q


def test_adam_step_neither_mutates_nor_keeps_its_gradients():
    rng = np.random.default_rng(5)
    given = rng.normal(size=(2, 3))
    later = rng.normal(size=(2, 3))
    runs = []
    for overwrite in (False, True):
        p = ad.parameter(np.ones((2, 3)))
        opt = Adam({"p": p}, lr=0.1)
        grad = given.copy()
        opt.step({p: grad})
        assert grad.tobytes() == given.tobytes()
        if overwrite:
            grad[...] = np.nan
        opt.step({p: later})
        runs.append(p.values.tobytes())
    assert runs[0] == runs[1]


def test_adam_nonfinite_update_raises():
    p = ad.parameter([[1.0]])
    opt = Adam({"p": p}, lr=0.1)
    with pytest.raises(DomainError):
        opt.step({p: np.array([[np.inf]])})


def test_adam_nonfinite_update_changes_nothing():
    rng = np.random.default_rng(0)
    params = {k: ad.parameter(rng.normal(size=(2, 3))) for k in "abc"}
    opt = Adam(params, lr=0.1)
    opt.step({p: rng.normal(size=(2, 3)) for p in params.values()})
    before = ({k: p.values.copy() for k, p in params.items()}, opt._m.copy(), opt._v.copy())
    bad = {
        params["a"]: np.ones((2, 3)),
        params["b"]: np.full((2, 3), np.nan),
        params["c"]: np.full((2, 3), np.inf),
    }
    with pytest.raises(DomainError, match="parameter 'b'"):
        opt.step(bad)
    for k, p in params.items():
        np.testing.assert_array_equal(p.values, before[0][k])
    np.testing.assert_array_equal(opt._m, before[1])
    np.testing.assert_array_equal(opt._v, before[2])
    assert opt.t == 1


def test_tapes_independent_across_threads():
    results = {}

    def work(name, seed):
        gen = np.random.default_rng(seed)
        w = ad.parameter(gen.normal(size=(3, 3)))
        for _ in range(20):
            with Tape() as tape:
                loss = ad.reduce_sum(ad.square(w))
            tape.backward(loss)
        results[name] = True

    threads = [threading.Thread(target=work, args=(i, i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4


def test_tensor_requires_2d():
    t = Tensor(3.0)
    assert t.shape == (1, 1)
    with pytest.raises(DimensionError):
        Tensor(np.ones((2, 2, 2)))
