import gc
import math

import numpy as np
import numpy.testing as npt
import pytest

import guided_attention.autodiff as ad
from guided_attention.autodiff import Tensor
from guided_attention.errors import DegenerateRowError, ShapeMismatchError
from oracles import (
    finite_difference_grad,
    layer_norm_naive,
    matmul_naive,
    relative_error,
    softmax_rows_naive,
)

NEG_INF = float("-inf")


def check_grads(build_loss, arrays, h=1e-5, tol=1e-4):
    """Analytic vs central-finite-difference gradients on leaf arrays."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*leaves)
    ad.backward(loss)
    numeric = finite_difference_grad(lambda: build_loss(*[Tensor(l.data) for l in leaves]).item(), [l.data for l in leaves], h=h)
    for leaf, num in zip(leaves, numeric):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert relative_error(analytic, num) < tol


def random_weighted_sum(out, rng):
    return ad.tensor_sum(ad.mul(out, Tensor(rng.normal(size=out.shape))))


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        npt.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_computed(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
        npt.assert_allclose(ad.matmul(Tensor(a), Tensor(b)).data, matmul_naive(a, b), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        out = ad.matmul(Tensor(a), Tensor(b))
        for i in range(2):
            npt.assert_allclose(out.data[i], matmul_naive(a[i], b), atol=1e-12)

    def test_grad(self):
        rng = np.random.default_rng(9)
        check_grads(
            lambda a, b: random_weighted_sum(ad.matmul(a, b), np.random.default_rng(1)),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
        )

    def test_grad_batched_shared_weight(self):
        rng = np.random.default_rng(10)
        check_grads(
            lambda a, b: random_weighted_sum(ad.matmul(a, b), np.random.default_rng(2)),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))],
        )


class TestSoftmax:
    def test_symmetric_row(self):
        npt.assert_array_equal(ad.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_single_allowed_entry(self):
        out = ad.softmax_rows(Tensor([[5.0, NEG_INF]]))
        npt.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_matches_exp_sum_oracle(self):
        x = np.array([[1.0, 2.0, 3.0]])
        npt.assert_allclose(ad.softmax_rows(Tensor(x)).data, softmax_rows_naive(x), atol=1e-12)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            ad.softmax_rows(Tensor([[1.0, 2.0], [NEG_INF, NEG_INF]]))

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=(4, 5)) * rng.integers(1, 40)
            x[rng.random(size=(4, 5)) < 0.3] = NEG_INF
            x[:, 0] = 0.0  # keep rows feasible
            y = ad.softmax_rows(Tensor(x)).data
            npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all((y >= 0.0) & (y <= 1.0))
            assert np.all(y[x == NEG_INF] == 0.0)

    def test_masked_entries_exactly_zero(self):
        y = ad.softmax_rows(Tensor([[2.0, NEG_INF, 1.0]])).data
        assert y[0, 1] == 0.0

    def test_grad(self):
        rng = np.random.default_rng(12)
        check_grads(
            lambda x: random_weighted_sum(ad.softmax_rows(x), np.random.default_rng(3)),
            [rng.normal(size=(4, 5))],
        )

    def test_grad_with_masked_entries(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4))
        x[0, 2] = NEG_INF
        x[2, 0] = NEG_INF
        check_grads(
            lambda t: random_weighted_sum(ad.softmax_rows(t), np.random.default_rng(4)), [x]
        )


class TestLayerNorm:
    def test_constant_row_gives_bias(self):
        out = ad.layer_norm(Tensor([[2.0, 2.0, 2.0]]), Tensor(np.ones(3)), Tensor([5.0, 6.0, 7.0]))
        npt.assert_allclose(out.data, [[5.0, 6.0, 7.0]], atol=1e-9)

    def test_two_point_standardization(self):
        out = ad.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        npt.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_row_statistics(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4)) * 3 + 1
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(15)
        x, g, b = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=4)
        npt.assert_allclose(
            ad.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data,
            layer_norm_naive(x, g, b),
            atol=1e-12,
        )

    def test_gain_bias_shape_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_grad(self):
        rng = np.random.default_rng(16)
        check_grads(
            lambda x, g, b: random_weighted_sum(ad.layer_norm(x, g, b), np.random.default_rng(5)),
            [rng.normal(size=(3, 4)), rng.normal(size=4) + 1.0, rng.normal(size=4)],
        )


class TestElementwiseOps:
    def test_add_broadcast_grad(self):
        rng = np.random.default_rng(17)
        check_grads(
            lambda x, b: random_weighted_sum(ad.add(x, b), np.random.default_rng(6)),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=4)],
        )

    def test_mul_grad(self):
        rng = np.random.default_rng(18)
        check_grads(
            lambda a, b: random_weighted_sum(ad.mul(a, b), np.random.default_rng(7)),
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
        )

    def test_relu_grad(self):
        rng = np.random.default_rng(19)
        check_grads(
            lambda x: random_weighted_sum(ad.relu(x), np.random.default_rng(8)),
            [rng.normal(size=(4, 4)) + 0.05],  # keep entries away from the kink
        )

    def test_transpose_grad(self):
        rng = np.random.default_rng(20)
        check_grads(
            lambda x: random_weighted_sum(ad.transpose_last(x), np.random.default_rng(9)),
            [rng.normal(size=(3, 5))],
        )

    def test_concat_grad(self):
        rng = np.random.default_rng(21)
        check_grads(
            lambda a, b: random_weighted_sum(ad.concat_last([a, b]), np.random.default_rng(10)),
            [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))],
        )

    def test_embedding_lookup_and_grad(self):
        rng = np.random.default_rng(22)
        table = rng.normal(size=(6, 3))
        ids = np.array([[0, 5, 2], [2, 2, 1]])
        out = ad.embedding(Tensor(table), ids)
        npt.assert_array_equal(out.data, table[ids])
        check_grads(
            lambda t: random_weighted_sum(ad.embedding(t, ids), np.random.default_rng(11)),
            [table],
        )

    def test_embedding_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            ad.embedding(Tensor(np.zeros((4, 2))), np.array([[4]]))

    def test_masked_mean_matches_oracle(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 5, 3))
        valid = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        out = ad.masked_mean(Tensor(x), valid)
        expected = np.stack([x[0, :3].mean(axis=0), x[1].mean(axis=0)])
        npt.assert_allclose(out.data, expected, atol=1e-12)
        check_grads(
            lambda t: random_weighted_sum(ad.masked_mean(t, valid), np.random.default_rng(12)),
            [x],
        )

    def test_cross_entropy_value_and_grad(self):
        rng = np.random.default_rng(24)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        out = ad.cross_entropy(Tensor(logits), labels)
        expected = np.mean(
            [-math.log(softmax_rows_naive(logits)[i][labels[i]]) for i in range(4)]
        )
        npt.assert_allclose(out.item(), expected, atol=1e-12)
        check_grads(lambda t: ad.cross_entropy(t, labels), [logits])

    def test_dropout_backward_formula(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(50, 10)), requires_grad=True)
        out = ad.dropout(x, 0.4, np.random.default_rng(0))
        keep = out.data / np.where(x.data != 0, x.data, 1.0)
        ad.backward(ad.tensor_sum(out))
        npt.assert_allclose(x.grad, keep, atol=1e-12)

    def test_dropout_rate_zero_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert ad.dropout(x, 0.0, None) is x


class TestBackward:
    def test_linear_case_outer_product(self):
        rng = np.random.default_rng(26)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 2)))
        ad.backward(ad.tensor_sum(ad.matmul(w, x)))
        npt.assert_allclose(w.grad, np.ones((3, 2)) @ x.data.T, atol=1e-12)

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.backward(Tensor(np.zeros((2, 2))))

    def test_unreachable_parameter_gets_zero(self):
        used = Tensor(np.ones((2, 2)), requires_grad=True, name="used")
        unused = Tensor(np.ones((2, 2)), requires_grad=True, name="unused")
        ad.backward(ad.tensor_sum(used), params={"used": used, "unused": unused})
        npt.assert_array_equal(unused.grad, np.zeros((2, 2)))
        npt.assert_array_equal(used.grad, np.ones((2, 2)))

    def test_shared_node_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, 4.0))
        ad.backward(ad.tensor_sum(y))
        npt.assert_array_equal(x.grad, [[7.0]])

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            loss = ad.cross_entropy(ad.matmul(ad.relu(ad.matmul(a, b)), b), np.array([0, 1, 2, 3]))
            ad.backward(loss)
            return loss.item(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        npt.assert_array_equal(ga1, ga2)
        npt.assert_array_equal(gb1, gb2)

    def test_dropped_graph_leaves_no_reference_cycle(self):
        """A graph is freed by reference counting alone once backward has run and it is dropped."""
        rng = np.random.default_rng(7)
        table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        ids = np.array([[0, 3, 1], [2, 4, 0]])
        mask = np.where(np.eye(3, dtype=bool), NEG_INF, 0.0)
        valid = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        proj = Tensor(rng.normal(size=(8, 4)), requires_grad=True)

        def build_and_backward():
            x = ad.embedding(table, ids)
            scores = ad.add(ad.matmul(x, ad.transpose_last(x)), Tensor(mask))
            attended = ad.matmul(ad.softmax_rows(ad.mul(scores, 0.5)), x)
            joined = ad.matmul(ad.concat_last([attended, ad.relu(x)]), proj)
            h = ad.layer_norm(joined, gain, bias)
            h = ad.dropout(h, 0.25, np.random.default_rng(0))
            logits = ad.masked_mean(h, valid)
            loss = ad.add(ad.cross_entropy(logits, np.array([1, 2])), ad.tensor_sum(x))
            ad.backward(loss)

        gc.collect()
        gc.disable()
        try:
            build_and_backward()
            assert gc.collect() == 0
        finally:
            gc.enable()
