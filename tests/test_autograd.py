"""Tests for the reverse-mode autograd engine: every primitive op is
validated against central finite differences, plus tape semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import (
    Tensor,
    as_tensor,
    check_gradients,
    clip,
    concatenate,
    gather_rows,
    is_grad_enabled,
    mse,
    no_grad,
    relu,
    segment_sum,
    sigmoid,
    silu,
    softplus,
    stack,
    weighted_mse,
    where,
)
from repro.autograd.ops import scatter_rows


class TestTensorBasics:
    def test_construction(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert not t.requires_grad

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_detach_cuts_tape(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = (a * 2.0).detach()
        assert b._ctx is None and not b.requires_grad

    def test_item(self):
        assert Tensor(np.array(2.5)).item() == 2.5

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_backward_accumulates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a.sum()).backward()
        (a.sum()).backward()
        np.testing.assert_allclose(a.grad, 2.0)

    def test_zero_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        a.sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_context(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            b = a * 3.0
        assert b._ctx is None

    def test_diamond_graph_gradient(self):
        """y = (a*2) + (a*3): gradient must sum both branches."""
        a = Tensor(np.array([1.0]), requires_grad=True)
        y = a * 2.0 + a * 3.0
        y.sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_reused_tensor_deep_chain(self):
        a = Tensor(np.array([0.5]), requires_grad=True)
        y = a
        for _ in range(5):
            y = y * a
        y.sum().backward()  # y = a^6, dy/da = 6 a^5
        np.testing.assert_allclose(a.grad, 6 * 0.5**5)


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4,)))
        check_gradients(lambda a, b: (a + b).sum(), [a, b])

    def test_sub_scalar_broadcast(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((1, 3)))
        check_gradients(lambda a, b: ((a - b) ** 2.0).sum(), [a, b])

    def test_mul(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        b = Tensor(rng.standard_normal((3, 3)))
        check_gradients(lambda a, b: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = Tensor(rng.standard_normal((4,)))
        b = Tensor(rng.uniform(1.0, 2.0, (4,)))
        check_gradients(lambda a, b: (a / b).sum(), [a, b])

    def test_rdiv(self, rng):
        b = Tensor(rng.uniform(1.0, 2.0, (4,)))
        check_gradients(lambda b: (1.0 / b).sum(), [b])

    def test_neg_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 1.5, (5,)))
        check_gradients(lambda a: (-(a**3.0)).sum(), [a])

    def test_matmul_2d(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        check_gradients(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_vec(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal(4))
        check_gradients(lambda a, v: (a @ v).sum(), [a, v])

    def test_matmul_batched(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal((2, 4, 2)))
        check_gradients(lambda a, b: (a @ b).sum(), [a, b])

    def test_exp_log_sqrt_tanh(self, rng):
        a = Tensor(rng.uniform(0.5, 1.5, (4,)))
        check_gradients(lambda a: (a.exp().log().sqrt().tanh()).sum(), [a])

    def test_reshape_transpose(self, rng):
        a = Tensor(rng.standard_normal((2, 6)))
        check_gradients(lambda a: (a.reshape(3, 4).T ** 2.0).sum(), [a])

    def test_transpose_axes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        check_gradients(
            lambda a: (a.transpose((2, 0, 1)) * 1.5).sum(), [a]
        )

    def test_transpose_negative_axes(self, rng):
        """Regression: argsort((-1, 0, 1)) is not the inverse permutation;
        the gradient used to come back wrong-shaped and crash backward."""
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = a.transpose((-1, 0, 1))
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        check_gradients(
            lambda a: (a.transpose((-1, 0, 1)) ** 2.0).sum(), [a]
        )

    def test_transpose_mixed_negative_axes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        check_gradients(
            lambda a: (a.transpose((1, -1, 0)) * 1.5).sum(), [a]
        )

    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        check_gradients(lambda a: (a.sum(axis=1, keepdims=True) ** 2.0).sum(), [a])

    def test_mean_axis(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        check_gradients(lambda a: (a.mean(axis=0) ** 2.0).sum(), [a])

    def test_getitem_slice(self, rng):
        a = Tensor(rng.standard_normal((5, 4)))
        check_gradients(lambda a: (a[1:4, ::2] ** 2.0).sum(), [a])

    def test_getitem_fancy_duplicates(self, rng):
        a = Tensor(rng.standard_normal(5))
        idx = np.array([0, 0, 3])
        check_gradients(lambda a: (a[idx] ** 2.0).sum(), [a])


class TestStructuralOps:
    def test_gather_rows(self, rng):
        a = Tensor(rng.standard_normal((4, 3)))
        idx = np.array([1, 1, 0, 3, 2])
        check_gradients(lambda a: (gather_rows(a, idx) ** 2.0).sum(), [a])

    def test_segment_sum_values(self):
        x = Tensor(np.arange(6.0).reshape(6, 1))
        out = segment_sum(x, np.array([0, 0, 1, 1, 1, 3]), 4)
        np.testing.assert_allclose(out.numpy().ravel(), [1.0, 9.0, 0.0, 5.0])

    def test_segment_sum_gradient(self, rng):
        x = Tensor(rng.standard_normal((6, 2)))
        seg = np.array([0, 1, 0, 2, 2, 1])
        check_gradients(lambda x: (segment_sum(x, seg, 3) ** 2.0).sum(), [x])

    def test_concatenate(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((4, 3)))
        check_gradients(lambda a, b: (concatenate([a, b]) ** 2.0).sum(), [a, b])

    def test_concatenate_axis1(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 1)))
        check_gradients(
            lambda a, b: (concatenate([a, b], axis=1) ** 2.0).sum(), [a, b]
        )

    def test_stack(self, rng):
        a = Tensor(rng.standard_normal(3))
        b = Tensor(rng.standard_normal(3))
        out = stack([a, b])
        assert out.shape == (2, 3)
        check_gradients(lambda a, b: (stack([a, b]) ** 2.0).sum(), [a, b])

    def test_where(self, rng):
        cond = np.array([True, False, True, False])
        a = Tensor(rng.standard_normal(4))
        b = Tensor(rng.standard_normal(4))
        check_gradients(lambda a, b: (where(cond, a, b) ** 2.0).sum(), [a, b])

    def test_stack_negative_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        out = stack([a, b], axis=-1)
        assert out.shape == (2, 3, 2)
        check_gradients(
            lambda a, b: (stack([a, b], axis=-1) ** 2.0).sum(), [a, b]
        )

    def test_where_broadcast(self, rng):
        """Regression: gradients were not un-broadcast to operand shapes —
        a scalar branch used to raise on backward."""
        cond = np.array([True, False, True, False, True])
        a = Tensor(np.array(2.0), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        out = where(cond, a, b)
        out.sum().backward()
        assert a.grad.shape == ()
        np.testing.assert_allclose(a.grad, 3.0)
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0, 1.0, 0.0])
        check_gradients(lambda a, b: (where(cond, a, b) ** 2.0).sum(), [a, b])

    def test_where_broadcast_2d(self, rng):
        cond = rng.standard_normal((3, 4)) > 0
        a = Tensor(rng.standard_normal((1, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        check_gradients(lambda a, b: (where(cond, a, b) ** 2.0).sum(), [a, b])

    def test_clip(self, rng):
        a = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]))
        out = clip(a, -1.0, 1.0)
        np.testing.assert_allclose(out.numpy(), [-1.0, -0.5, 0.5, 1.0])
        # Gradient only flows inside the active range (check away from kinks).
        check_gradients(lambda a: (clip(a, -1.0, 1.0) * 3.0).sum(), [a])


class TestActivations:
    @pytest.mark.parametrize("fn", [silu, relu, sigmoid, softplus])
    def test_gradients(self, fn, rng):
        a = Tensor(rng.standard_normal(6) + 0.1)
        check_gradients(lambda a: fn(a).sum(), [a])

    def test_silu_values(self):
        x = Tensor(np.array([0.0]))
        assert silu(x).numpy()[0] == pytest.approx(0.0)

    def test_relu_values(self):
        np.testing.assert_allclose(
            relu(Tensor(np.array([-1.0, 2.0]))).numpy(), [0.0, 2.0]
        )

    def test_softplus_stable_at_large_input(self):
        out = softplus(Tensor(np.array([800.0]))).numpy()
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(800.0)


class TestLosses:
    def test_mse_zero_for_identical(self, rng):
        p = Tensor(rng.standard_normal(4))
        assert mse(p, p.numpy()).item() == pytest.approx(0.0)

    def test_weighted_mse_weighting(self):
        pred = Tensor(np.array([1.0, 0.0]))
        target = np.zeros(2)
        # All weight on the first element -> loss = 1.
        assert weighted_mse(pred, target, [1.0, 0.0]).item() == pytest.approx(1.0)

    def test_weighted_mse_normalizes(self):
        pred = Tensor(np.array([1.0, 1.0]))
        l1 = weighted_mse(pred, np.zeros(2), [1.0, 1.0]).item()
        l2 = weighted_mse(pred, np.zeros(2), [10.0, 10.0]).item()
        assert l1 == pytest.approx(l2)

    def test_weighted_mse_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_mse(Tensor(np.ones(2)), np.zeros(2), [0.0, 0.0])

    def test_mse_gradient(self, rng):
        p = Tensor(rng.standard_normal(5))
        t = rng.standard_normal(5)
        check_gradients(lambda p: mse(p, t), [p])


@settings(max_examples=25, deadline=None)
@given(
    arr=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
        elements=st.floats(-2, 2),
    )
)
def test_property_sum_gradient_is_ones(arr):
    """d(sum x)/dx = 1 everywhere, any shape."""
    t = Tensor(arr.copy(), requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(arr))


@settings(max_examples=25, deadline=None)
@given(
    seg_ids=st.lists(st.integers(0, 3), min_size=1, max_size=12),
)
def test_property_segment_sum_conserves_mass(seg_ids):
    """Total of segment sums equals total of inputs (a conservation law)."""
    x = np.random.default_rng(0).standard_normal((len(seg_ids), 2))
    out = segment_sum(Tensor(x), np.array(seg_ids), 4)
    np.testing.assert_allclose(out.numpy().sum(), x.sum(), atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.integers(0, 8),
    n_entries=st.integers(0, 16),
    trailing=st.sampled_from([(), (1,), (3,), (2, 3)]),
    strided=st.booleans(),
    with_out=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_property_scatter_rows_is_add_at_bitwise(
    n_rows, n_entries, trailing, strided, with_out, seed
):
    """The one segment-sum primitive equals ``np.add.at`` bit for bit:
    zero entries, rows no entry maps to (atoms without edges, ghost
    atoms), 1-D values, non-contiguous values and ``out=``.  Values span
    sixteen decades, so any other summation order would show."""
    rng = np.random.default_rng(seed)
    if n_rows == 0:
        n_entries = 0  # nothing can land in zero rows
    index = rng.integers(0, max(n_rows, 1), n_entries)
    shape = (n_entries, 2) + trailing
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    values = wide[:, 1] if strided else np.ascontiguousarray(wide[:, 1])
    ref = np.zeros((n_rows,) + trailing)
    np.add.at(ref, index, values)
    out = np.full(ref.shape, np.nan) if with_out else None
    got = scatter_rows(values, index, n_rows, out=out)
    if with_out:
        assert got is out
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
