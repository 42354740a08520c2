"""Gradient checks for the autodiff engine against central finite differences."""

import numpy as np
import pytest

from palign.autodiff import (
    _GELU_C,
    Tensor,
    concat,
    gelu,
    layer_norm,
    linear,
    softmax,
    softmax_expectation,
)


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_grad(build, x: np.ndarray, rtol: float = 1e-6, atol: float = 1e-8):
    """build(t: Tensor) -> scalar Tensor; compares backward vs numeric grad."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()

    def fn(arr):
        return build(Tensor(arr)).item()

    expected = numeric_grad(fn, x.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


RNG = np.random.default_rng(7)


def composite_layer_norm(x: Tensor, eps: float = 1e-6) -> Tensor:
    """layer_norm built from elementary ops: the oracle for the single op."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt()


def composite_gelu(x: Tensor) -> Tensor:
    """gelu built from elementary ops: the oracle for the single op."""
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


class TestElementwise:
    def test_add_mul_chain(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: ((t * 2.0 + 1.5) * t).sum(), x)

    def test_sub_div(self):
        x = RNG.normal(size=(4,)) + 3.0
        check_grad(lambda t: ((t - 0.5) / (t + 2.0)).sum(), x)

    def test_rdiv_and_pow(self):
        x = np.abs(RNG.normal(size=(5,))) + 0.5
        check_grad(lambda t: (1.0 / t + t**3 + t**-0.5).sum(), x)

    def test_broadcast_add(self):
        x = RNG.normal(size=(3, 1))
        y = RNG.normal(size=(4,))

        def build(t):
            return ((t + Tensor(y)) * (t + 2.0)).sum()

        check_grad(build, x)

    def test_broadcast_mul_both_sides(self):
        x = RNG.normal(size=(2, 3))
        t = Tensor(x, requires_grad=True)
        col = Tensor(RNG.normal(size=(2, 1)), requires_grad=True)
        out = (t * col).sum()
        out.backward()
        assert t.grad.shape == (2, 3)
        assert col.grad.shape == (2, 1)
        np.testing.assert_allclose(col.grad[:, 0], x.sum(axis=1))

    def test_unary_ops(self):
        x = np.abs(RNG.normal(size=(6,))) + 0.3
        check_grad(lambda t: (t.exp() + t.log() + t.sqrt() + t.tanh()).sum(), x)

    def test_relu_gradient_zero_in_flat_region(self):
        t = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0, 1.0])

    def test_neg(self):
        x = RNG.normal(size=(3,))
        check_grad(lambda t: (-t * t).sum(), x)

    def test_sub_grad_broadcast_on_both_sides(self):
        a, b = RNG.normal(size=(3, 1)), RNG.normal(size=(1, 4))
        w = RNG.normal(size=(3, 4))
        check_grad(lambda t: ((t - Tensor(b)) ** 3 * Tensor(w)).sum(), a)
        check_grad(lambda t: ((Tensor(a) - t) ** 3 * Tensor(w)).sum(), b)
        check_grad(lambda t: ((t - t.T) ** 2 * Tensor(w[:, :3])).sum(), a @ b[:, :3])

    @pytest.mark.parametrize("reflected", [False, True])
    def test_sub_is_one_node_equal_to_add_neg_bit_for_bit(self, reflected):
        a, b = RNG.normal(size=(3, 1)) * 5, RNG.normal(size=(4,))
        if reflected:
            a = float(a[0, 0])
        g = RNG.normal(size=(3, 4) if not reflected else (4,))
        got, want = [], []
        for build, leaves in ((lambda x, y: x - y, got), (lambda x, y: x + (-y), want)):
            x = a if reflected else Tensor(a, requires_grad=True)
            y = Tensor(b, requires_grad=True)
            out = build(x, y)
            out.backward(g)
            leaves.extend([out] + [t for t in (x, y) if isinstance(t, Tensor)])
        assert got[0]._parents[-1] is got[-1]  # no negation node in between
        for t, u in zip(got, want):
            np.testing.assert_array_equal(t.data, u.data)
            if t.grad is not None or u.grad is not None:
                np.testing.assert_array_equal(t.grad, u.grad)


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))

        def build(t):
            return (t @ Tensor(b)).sum()

        check_grad(build, a)

        def build_rhs(t):
            return (Tensor(a) @ t).sum()

        check_grad(build_rhs, b)

    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        check_grad(lambda t: ((t @ Tensor(b)) ** 2).sum(), a)
        check_grad(lambda t: ((Tensor(a) @ t) ** 2).sum(), b)

    def test_matmul_batched_vs_loop_oracle(self):
        a = RNG.normal(size=(3, 2, 4))
        b = RNG.normal(size=(3, 4, 6))
        out = Tensor(a) @ Tensor(b)
        expected = np.stack([a[i] @ b[i] for i in range(3)])
        np.testing.assert_array_equal(out.data, expected)

    def test_matmul_broadcast_lhs(self):
        a = RNG.normal(size=(3, 4))  # broadcast over batch of b
        b = RNG.normal(size=(5, 4, 2))
        check_grad(lambda t: ((t @ Tensor(b)) ** 2).sum(), a)

    def test_matmul_with_one_2d_operand(self):
        # the 2-D operand's gradient contracts the other's batch axes
        stack = RNG.normal(size=(3, 2, 4))
        mat = RNG.normal(size=(4, 5))
        check_grad(lambda t: ((Tensor(stack) @ t) ** 2).sum(), mat)
        check_grad(lambda t: ((t @ Tensor(mat)) ** 2).sum(), stack)
        lhs = RNG.normal(size=(2, 4))
        check_grad(lambda t: ((t @ Tensor(stack.transpose(0, 2, 1))) ** 2).sum(), lhs)

    def test_reshape_transpose(self):
        x = RNG.normal(size=(2, 6))
        m = RNG.normal(size=(3, 3))
        check_grad(lambda t: (t.reshape(3, 4).T @ Tensor(m)).sum(), x)

    def test_transpose_axes(self):
        x = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: (t.transpose((1, 2, 0)) ** 2).sum(), x)

    def test_getitem_slice(self):
        x = RNG.normal(size=(5, 4))
        check_grad(lambda t: (t[1:4] * 2.0).sum(), x)

    def test_getitem_fancy_rows_with_repeats(self):
        x = RNG.normal(size=(4, 3))
        idx = np.array([0, 2, 2, 3, 0])
        check_grad(lambda t: (t[idx] ** 2).sum(), x)

    def test_getitem_boolean_mask(self):
        x = RNG.normal(size=(3, 3))
        mask = np.array([[True, False, True], [False, False, True], [True, True, False]])
        check_grad(lambda t: (t[mask] ** 2).sum(), x)

    def test_concat(self):
        x = RNG.normal(size=(2, 3))
        y = RNG.normal(size=(4, 3))

        def build(t):
            return (concat([t, Tensor(y)], axis=0) ** 2).sum()

        check_grad(build, x)


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = RNG.normal(size=(3, 4, 2))
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x)

    def test_mean_axes(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: (t.mean(axis=0) ** 2).sum(), x)
        check_grad(lambda t: t.mean() * 3.0, x)

    def test_diamond_graph_accumulates(self):
        # t feeds two branches that rejoin; grads must add
        x = RNG.normal(size=(4,))
        check_grad(lambda t: (t * t.sum()).sum(), x)

    def test_reused_node(self):
        x = RNG.normal(size=(3,))

        def build(t):
            y = t * 2.0
            return (y * y + y).sum()

        check_grad(build, x)


class TestComposites:
    def test_softmax_matches_numpy(self):
        x = RNG.normal(size=(4, 5)) * 3
        s = softmax(Tensor(x), axis=-1)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(s.data, e / e.sum(axis=-1, keepdims=True), rtol=1e-12)

    def test_softmax_grad(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: (softmax(t, axis=-1) ** 2).sum(), x)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_grad_3d(self, axis):
        x = RNG.normal(size=(2, 3, 4)) * 2
        w = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: (softmax(t, axis=axis) * Tensor(w)).sum(), x)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_forward_is_the_composite_bit_for_bit(self, axis):
        x = RNG.normal(size=(3, 4, 5)) * 4
        t = Tensor(x)
        e = (t - Tensor(np.max(x, axis=axis, keepdims=True))).exp()
        composite = e / e.sum(axis=axis, keepdims=True)
        np.testing.assert_array_equal(softmax(t, axis=axis).data, composite.data)

    def test_layer_norm_moments_and_grad(self):
        x = RNG.normal(size=(3, 8)) * 2 + 1
        out = layer_norm(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)
        w = RNG.normal(size=(3, 8))
        check_grad(lambda t: (layer_norm(t) * Tensor(w)).sum(), x, rtol=1e-5, atol=1e-7)

    def test_gelu_grad(self):
        x = RNG.normal(size=(7,)) * 2
        check_grad(lambda t: gelu(t).sum(), x)

    @pytest.mark.parametrize("shape", [(3, 6), (2, 3, 5)])
    def test_layer_norm_grad_nd(self, shape):
        x = RNG.normal(size=shape) * 2 + 0.5
        w = RNG.normal(size=shape)
        check_grad(lambda t: (layer_norm(t) * Tensor(w)).sum(), x, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("shape", [(3, 6), (2, 3, 5)])
    def test_gelu_grad_nd(self, shape):
        x = RNG.normal(size=shape) * 2
        w = RNG.normal(size=shape)
        check_grad(lambda t: (gelu(t) * Tensor(w)).sum(), x)

    @pytest.mark.parametrize("shape", [(4, 8), (2, 5, 16)])
    @pytest.mark.parametrize(
        "op, composite",
        [(layer_norm, composite_layer_norm), (gelu, composite_gelu)],
        ids=["layer_norm", "gelu"],
    )
    def test_single_op_is_the_composite(self, op, composite, shape):
        # forward bit for bit; backward equal up to round-off
        x = RNG.normal(size=shape) * 3 + 0.2
        w = RNG.normal(size=shape)
        grads = []
        for fn in (op, composite):
            t = Tensor(x, requires_grad=True)
            out = fn(t)
            (out * Tensor(w)).sum().backward()
            grads.append((out.data, t.grad))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_allclose(grads[0][1], grads[1][1], rtol=1e-10, atol=1e-12)

    def test_gelu_values(self):
        # GELU(0)=0 and large positive inputs pass through
        out = gelu(Tensor(np.array([0.0, 10.0])))
        np.testing.assert_allclose(out.data, [0.0, 10.0], atol=1e-4)


class TestLinear:
    @pytest.mark.parametrize("bias_shape", [(5,), (1, 5)])
    def test_grad_of_every_operand(self, bias_shape):
        operands = [RNG.normal(size=(6, 4)), RNG.normal(size=(5, 4)),
                    RNG.normal(size=bias_shape)]
        g = RNG.normal(size=(6, 5))
        for i in range(3):
            def build(t, i=i):
                args = [Tensor(a) for a in operands]
                args[i] = t
                return (linear(*args) * Tensor(g)).sum()

            check_grad(build, operands[i])

    @pytest.mark.parametrize("x_grad", [False, True])
    def test_matches_the_composite(self, x_grad):
        x, w, b = RNG.normal(size=(7, 3)), RNG.normal(size=(4, 3)), RNG.normal(size=4)
        g = RNG.normal(size=(7, 4))
        results = []
        for fn in (linear, lambda x, w, b: x @ w.T + b):
            leaves = [Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True),
                      Tensor(b, requires_grad=True)]
            out = fn(*leaves)
            out.backward(g)
            results.append([out.data] + [t.grad for t in leaves])
        np.testing.assert_allclose(results[0][0], results[1][0], rtol=1e-14)
        for got, want in zip(results[0][1:], results[1][1:]):
            if not x_grad and want is None:
                assert got is None
                continue
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_rejects_input_not_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(5)))


class TestSoftmaxExpectation:
    VALUES = np.array([0.1, 0.4, 0.45, 2.0, 3.5, 9.0])  # uneven spacing

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_grad(self, shape):
        x = RNG.normal(size=shape) * 2
        w = RNG.normal(size=shape[:-1])
        check_grad(lambda t: (softmax_expectation(t, self.VALUES) * Tensor(w)).sum(), x)

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_matches_the_composite(self, shape):
        x = RNG.normal(size=shape) * 4
        w = RNG.normal(size=shape[:-1])
        given = x.copy()
        results = []
        for fn in (softmax_expectation, lambda t, v: (softmax(t) * Tensor(v)).sum(axis=-1)):
            t = Tensor(x, requires_grad=True)
            out = fn(t, self.VALUES)
            (out * Tensor(w)).sum().backward()
            results.append((out.data, t.grad))
        np.testing.assert_allclose(results[0][0], results[1][0], rtol=1e-14)
        np.testing.assert_allclose(results[0][1], results[1][1], rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(x, given)


class TestConstantOperands:
    """A constant operand (requires_grad False) gets no gradient, and the
    other operand's gradient is the same expression as before."""

    def setup_method(self):
        self.x = RNG.normal(size=(3, 4)) + 3.0
        self.c = RNG.normal(size=(4,)) + 3.0
        self.g = RNG.normal(size=(3, 4))

    @pytest.mark.parametrize("op, want_x, want_c", [
        (lambda x, c: x + c, lambda x, c, g: g, lambda x, c, g: g.sum(axis=0)),
        (lambda x, c: x - c, lambda x, c, g: g, lambda x, c, g: -g.sum(axis=0)),
        (lambda x, c: x * c, lambda x, c, g: g * c, lambda x, c, g: (g * x).sum(axis=0)),
        (lambda x, c: x / c, lambda x, c, g: g / c,
         lambda x, c, g: (-g * x / c**2).sum(axis=0)),
    ])
    def test_only_leaves_get_gradients(self, op, want_x, want_c):
        x, c, g = self.x, self.c, self.g
        for x_leaf, c_leaf in ((True, False), (False, True), (True, True)):
            tx, tc = Tensor(x, requires_grad=x_leaf), Tensor(c, requires_grad=c_leaf)
            out = op(tx, tc)
            gx, gc = out._backward(g)
            assert (gx is None) is not x_leaf
            assert (gc is None) is not c_leaf
            out.backward(g)
            if x_leaf:
                np.testing.assert_array_equal(tx.grad, want_x(x, c, g))
            if c_leaf:
                np.testing.assert_array_equal(tc.grad, want_c(x, c, g))

    def test_reflected_ops_skip_the_constant(self):
        x, g = self.x, self.g
        for out in (2.0 + Tensor(x, requires_grad=True), 2.0 - Tensor(x, requires_grad=True),
                    2.0 * Tensor(x, requires_grad=True), 2.0 / Tensor(x, requires_grad=True)):
            grads = out._backward(g)
            assert sum(grad is None for grad in grads) == 1


class TestApi:
    def test_float64_enforced(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert t.data.dtype == np.float64

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_without_grad_flag(self):
        t = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_detach_blocks_gradient(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = (t.detach() * t).sum()
        out.backward()
        np.testing.assert_array_equal(t.grad, np.ones(3))

    def test_item(self):
        assert Tensor(np.array(2.5)).item() == 2.5
