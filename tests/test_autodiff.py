import gc
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import guided_attention.autodiff as ad
from guided_attention.autodiff import Tensor
from guided_attention.errors import DegenerateRowError, ShapeMismatchError
from oracles import (
    concat_last,
    cut_keep,
    dropout,
    dropout_keep,
    finite_difference_grad,
    heads_per_head,
    layer_norm_mean_var,
    layer_norm_naive,
    masked_mean,
    matmul_naive,
    relative_error,
    reshape,
    softmax_rows,
    softmax_rows_naive,
    spread_weights,
    square_plan,
    tensor_sum,
    tier_plan,
    transpose_last,
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
    return tensor_sum(ad.mul(out, Tensor(rng.normal(size=out.shape))))


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
    """``oracles.softmax_rows``, the reference that ``autodiff.attention``'s weights are checked against."""

    def test_symmetric_row(self):
        npt.assert_array_equal(softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_single_allowed_entry(self):
        out = softmax_rows(Tensor([[5.0, NEG_INF]]))
        npt.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_matches_exp_sum_oracle(self):
        x = np.array([[1.0, 2.0, 3.0]])
        npt.assert_allclose(softmax_rows(Tensor(x)).data, softmax_rows_naive(x), atol=1e-12)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            softmax_rows(Tensor([[1.0, 2.0], [NEG_INF, NEG_INF]]))

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=(4, 5)) * rng.integers(1, 40)
            x[rng.random(size=(4, 5)) < 0.3] = NEG_INF
            x[:, 0] = 0.0  # keep rows feasible
            y = softmax_rows(Tensor(x)).data
            npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all((y >= 0.0) & (y <= 1.0))
            assert np.all(y[x == NEG_INF] == 0.0)

    def test_masked_entries_exactly_zero(self):
        y = softmax_rows(Tensor([[2.0, NEG_INF, 1.0]])).data
        assert y[0, 1] == 0.0

    def test_grad(self):
        rng = np.random.default_rng(12)
        check_grads(
            lambda x: random_weighted_sum(softmax_rows(x), np.random.default_rng(3)),
            [rng.normal(size=(4, 5))],
        )

    def test_grad_with_masked_entries(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4))
        x[0, 2] = NEG_INF
        x[2, 0] = NEG_INF
        check_grads(
            lambda t: random_weighted_sum(softmax_rows(t), np.random.default_rng(4)), [x]
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

    @settings(max_examples=60)
    @given(
        lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
        d=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 1e3, -1e6]),
        constant_row=st.booleans(),
    )
    def test_bit_identical_to_mean_var_oracle(self, lead, d, seed, offset, constant_row):
        """Forward and every gradient equal those of the ``np.mean``/``np.var`` layer norm bit for bit."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, d)) * rng.uniform(0.1, 10.0) + offset
        if constant_row:
            x.reshape(-1, d)[0] = offset
        gain, bias, weights = rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape)
        results = []
        for norm in (ad.layer_norm, layer_norm_mean_var):
            leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
            out = norm(*leaves)
            ad.backward(tensor_sum(ad.mul(out, weights)))
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for got, expected in zip(*results):
            npt.assert_array_equal(got, expected)


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
            lambda x: random_weighted_sum(transpose_last(x), np.random.default_rng(9)),
            [rng.normal(size=(3, 5))],
        )

    def test_concat_grad(self):
        rng = np.random.default_rng(21)
        check_grads(
            lambda a, b: random_weighted_sum(concat_last([a, b]), np.random.default_rng(10)),
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

    def test_packed_mean_matches_oracle(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(8, 3))
        lengths = np.array([3, 5])
        out = ad.packed_mean(Tensor(x), lengths)
        expected = np.stack([x[:3].mean(axis=0), x[3:].mean(axis=0)])
        npt.assert_allclose(out.data, expected, atol=1e-12)
        padded = np.zeros((2, 5, 3))
        valid = np.arange(5) < lengths[:, None]
        padded[valid] = x
        npt.assert_allclose(out.data, masked_mean(Tensor(padded), valid).data, rtol=0, atol=1e-12)
        check_grads(
            lambda t: random_weighted_sum(ad.packed_mean(t, lengths), np.random.default_rng(12)),
            [x],
        )

    def test_packed_mean_rejects_a_sentence_without_rows(self):
        # np.add.reduceat would give the empty run the next sentence's row, and 0 / 0 rows inf.
        with pytest.raises(ShapeMismatchError, match="no valid positions"):
            ad.packed_mean(Tensor(np.ones((3, 2))), np.array([2, 0, 1]))
        with pytest.raises(ShapeMismatchError):
            ad.packed_mean(Tensor(np.ones((4, 2))), np.array([2, 1]))

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
        out = dropout(x, 0.4, np.random.default_rng(0))
        keep = out.data / np.where(x.data != 0, x.data, 1.0)
        ad.backward(tensor_sum(out))
        npt.assert_allclose(x.grad, keep, atol=1e-12)

    def test_dropout_rate_zero_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert dropout(x, 0.0, None) is x


class TestAttention:
    """``ad.attention``: all heads of a layer as one tape node."""

    @staticmethod
    def packed_inputs(rng, b=2, n=3, heads=2, d_k=3, d_v=2):
        """(b, n, ·) q, k and v, and one additive (b, n, n) mask per head with key 0 open."""
        q = rng.normal(size=(b, n, heads * d_k))
        k = rng.normal(size=(b, n, heads * d_k))
        v = rng.normal(size=(b, n, heads * d_v))
        masks = np.where(rng.random((heads, b, n, n)) < 0.4, NEG_INF, 0.0)
        masks[..., 0] = 0.0  # keep every row feasible
        return q, k, v, list(masks)

    @staticmethod
    def rows(*arrays):
        """Tensors of the packed rows of (b, n, ·) ``arrays``, as a ``square_plan`` lays them out."""
        return [Tensor(a.reshape(-1, a.shape[-1])) for a in arrays]

    @staticmethod
    def reference_weights(q, k, masks, h, d_k):
        cols = slice(h * d_k, (h + 1) * d_k)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2)
        return softmax_rows(Tensor((scores + masks[h]) * (1.0 / math.sqrt(d_k)))).data

    def test_grad_with_masks_and_dropout(self):
        rng = np.random.default_rng(30)
        q, k, v, masks = self.packed_inputs(rng)
        assert any(np.any(mk == NEG_INF) for mk in masks)
        keep = dropout_keep((2, 2, 3, 3), 0.3, np.random.default_rng(31))
        assert np.any(keep == 0.0)
        plan = square_plan(*[mk == 0.0 for mk in masks])
        check_grads(
            lambda q, k, v: random_weighted_sum(
                ad.attention(q, k, v, plan, lambda shape: keep)[0], np.random.default_rng(32)
            ),
            [a.reshape(6, -1) for a in (q, k, v)],
        )

    def test_packed_rows_equal_the_valid_rows_of_the_padded_layout(self):
        rng = np.random.default_rng(35)
        valid = np.arange(4) < np.array([4, 1, 3])[:, None]
        padded = [np.where(valid[..., None], rng.normal(size=(3, 4, 6)), 0.0) for _ in "qkv"]
        keep = dropout_keep((2, 3, 4, 4), 0.3, np.random.default_rng(36))
        upstream = rng.normal(size=(3, 4, 6)) * valid[..., None]
        plan = ad.Plan.build(np.array([4, 1, 3]), [valid[:, None, :]] * 2)
        every_position = square_plan(*[valid[:, None, :]] * 2)  # padded positions as rows, their keys closed
        runs = []
        for layout, pick in ((every_position, lambda a: a.reshape(12, -1)), (plan, lambda a: a[valid])):
            tensors = [Tensor(pick(a), requires_grad=True) for a in padded]
            out, weights = ad.attention(*tensors, layout, lambda shape: keep)
            ad.backward(tensor_sum(ad.mul(out, pick(upstream))))
            runs.append((out.data, spread_weights(layout, weights), [t.grad for t in tensors]))
        (out, weights, grads), (packed_out, packed_weights, packed_grads) = runs
        npt.assert_array_equal(packed_out, out.reshape(3, 4, 6)[valid])
        npt.assert_array_equal(packed_weights, weights)
        for grad, packed_grad in zip(grads, packed_grads):
            npt.assert_array_equal(packed_grad, grad.reshape(3, 4, 6)[valid])
        with pytest.raises(ShapeMismatchError, match="valid positions"):
            ad.attention(padded[0][valid][1:], padded[1][valid], padded[2][valid], plan)
        packed = [a[valid] for a in padded]
        with pytest.raises(ShapeMismatchError, match=r"keep shape \(2, 3, 3, 3\) vs weights \(2, 3, 4, 4\)"):
            ad.attention(*packed, plan, lambda shape: keep[..., :3, :3])

    def test_outputs_match_per_head_softmax_and_dropout(self):
        rng = np.random.default_rng(33)
        q, k, v, masks = self.packed_inputs(rng)
        keep = dropout_keep((2, 2, 3, 3), 0.5, np.random.default_rng(34))
        out, (weights,) = ad.attention(*self.rows(q, k, v), square_plan(*[mk == 0.0 for mk in masks]),
                                       lambda shape: keep)
        assert out.shape == (6, 4) and weights.shape == (2, 2, 3, 3)
        for h in range(2):
            cols = slice(2 * h, 2 * h + 2)
            npt.assert_allclose(out.data.reshape(2, 3, 4)[..., cols], (weights[h] * keep[h]) @ v[..., cols],
                                rtol=0, atol=1e-14)

    def test_weights_equal_softmax_rows_bitwise(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            q, k, v, masks = self.packed_inputs(rng, heads=3, d_k=4)
            q *= rng.choice([1e-3, 1.0, 30.0])
            _, (weights,) = ad.attention(*self.rows(q, k, v), square_plan(*[mk == 0.0 for mk in masks]))
            for h in range(3):
                npt.assert_array_equal(weights[h], self.reference_weights(q, k, masks, h, 4))

    @pytest.mark.parametrize("case", ["nan_key", "inf_key", "nan_query", "all_masked"])
    def test_nonfinite_rows_behave_as_softmax_rows(self, case):
        """Row by row: every key masked raises, a NaN or +inf score gives a NaN row, any other row is the oracle's."""
        rng = np.random.default_rng(36)
        q, k, v, masks = self.packed_inputs(rng, b=1, n=3, heads=1, d_k=2, d_v=2)
        q, k, v, masks = np.abs(q[0]) + 0.5, k[0], v[0], [masks[0][0]]
        nan_rows = [0, 1, 2]
        if case == "nan_key":
            k[1, 0] = np.nan  # one NaN score in every row
        elif case == "inf_key":
            k[1] = [np.inf, 0.0]  # one +inf score in every row,
            masks[0][:, 1] = [0.0, 0.0, NEG_INF]  # open in rows 0 and 1, masked in row 2
        elif case == "nan_query":
            q[2, 1] = np.nan  # a whole row of NaN scores
            nan_rows = [2]
        else:
            masks[0][1] = NEG_INF
            with pytest.raises(DegenerateRowError, match=r"head 0: every key of row \(0, 1\) is masked"):
                ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(masks[0] == 0.0))
            return

        with np.errstate(invalid="ignore"):
            _, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(masks[0] == 0.0))
            want = heads_per_head(q[None], k[None], v[None], [mk[None] for mk in masks], None, np.arange(1))[1]
            assert weights.tobytes() == want.tobytes()  # NaN bits too
        weights = weights[0, 0]
        assert np.all(np.isnan(weights[nan_rows]))
        finite = [i for i in range(3) if i not in nan_rows]
        expected = self.reference_weights(q[finite], k, [masks[0][finite]], 0, 2)
        npt.assert_array_equal(weights[finite], expected)

    def test_closed_row_raises_beside_a_nan_row(self):
        """A NaN row maximum, which would hide a ``-inf`` one from ``min``, does not hide the closed row."""
        rng = np.random.default_rng(37)
        q, k, v, masks = self.packed_inputs(rng, b=1, n=3, heads=2, d_k=2, d_v=2)
        q[0, 0, 2] = np.nan  # head 1 scores row 0 NaN throughout
        masks[1][0, 2] = NEG_INF  # and masks every key of row 2
        with pytest.raises(DegenerateRowError, match=r"head 1: every key of row \(0, 2\) is masked"):
            ad.attention(*self.rows(q, k, v), square_plan(*[mk == 0.0 for mk in masks]))

    def test_closed_key_with_an_overflowing_score_gets_zero_weight(self):
        """A masked key whose score would overflow ``exp`` if it were open weighs exactly 0, silently."""
        q = np.array([[1e150], [1.0], [1.0]])
        k = np.array([[1e150], [1e-150], [2e-150]])  # query 0 scores key 0 at 1e300
        v = np.random.default_rng(39).normal(size=(3, 2))
        mask = np.array([[NEG_INF, 0.0, 0.0]] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(mask == 0.0))
        assert np.all(weights[0, 0][:, 0] == 0.0)
        npt.assert_array_equal(weights[0, 0], self.reference_weights(q, k, [mask], 0, 1))

    def test_key_row_mask_equals_its_broadcast_grid(self):
        rng = np.random.default_rng(38)
        q, k, v, _ = self.packed_inputs(rng)
        key_rows = [rng.random((2, 1, 3)) >= 0.5 for _ in range(2)]
        for row in key_rows:
            row[..., 0] = True
        grids = [np.broadcast_to(row, (2, 3, 3)).copy() for row in key_rows]
        out, (weights,) = ad.attention(*self.rows(q, k, v), square_plan(*key_rows))
        want_out, (want,) = ad.attention(*self.rows(q, k, v), square_plan(*grids))
        assert weights.tobytes() == want.tobytes()
        assert out.data.tobytes() == want_out.data.tobytes()

    def test_shape_errors(self):
        """Heads that do not split the columns, a ``drop`` that returns a block of another shape, or masks not in a
        plan."""
        rng = np.random.default_rng(37)
        q, k, v, masks = self.packed_inputs(rng)
        allowed = [mk == 0.0 for mk in masks]
        with pytest.raises(ShapeMismatchError, match="into 3 heads"):
            ad.attention(*self.rows(q, k, v), square_plan(*allowed, allowed[0]))
        with pytest.raises(ShapeMismatchError, match="keep shape"):
            ad.attention(*self.rows(q, k, v), square_plan(*allowed), lambda shape: np.ones((2, 2, 3, 2)))
        with pytest.raises(ShapeMismatchError, match="autodiff.Plan"):
            ad.attention(*self.rows(q, k, v), masks)

    @staticmethod
    @st.composite
    def kernel_inputs(draw):
        """One tier's (count, width, ·) operands, additive masks, ``keep``, batch ``rows`` and an upstream
        gradient for ``ad._heads``.

        A mask is a (count, width, width) block, a (count, 1, width) row of keys or a (width, width) block
        that every row shares, as a lone tier keeps them. A mask may close rows, so the kernel may raise.
        Queries scaled by 300 or 2000 spread rows far enough for ``exp`` to give tiny results (below
        ``ad.EXP_FLOOR``) or exactly 0."""
        heads, d_k, d_v = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        count, width = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, k, v = (rng.normal(size=(count, width, heads * d)) for d in (d_k, d_k, d_v))
        q *= draw(st.sampled_from([1.0, 300.0, 2000.0]))
        closed = draw(st.sampled_from([0.0, 0.3, 0.7]))
        shapes = st.sampled_from([(count, width, width), (count, 1, width), (width, width)])
        masks = [np.where(rng.random(draw(shapes)) < closed, NEG_INF, 0.0) for _ in range(heads)]
        keep = dropout_keep((heads, count, width, width), 0.3, rng) if draw(st.booleans()) else None
        rows = rng.permutation(count) * 7 if draw(st.booleans()) else np.arange(count)
        return q, k, v, masks, keep, rows, rng.normal(size=(count, width, heads * d_v))

    @settings(max_examples=200)
    @given(inputs=kernel_inputs())
    def test_kernel_equals_the_per_head_reference_bitwise(self, inputs):
        """Output, weights and gradients equal the per-head kernel's bit for bit; so does a closed row's error."""
        q, k, v, masks, keep, rows, upstream = inputs
        try:
            want_out, want_weights, want_grads = heads_per_head(q, k, v, masks, keep, rows)
        except DegenerateRowError as exc:
            with pytest.raises(DegenerateRowError) as raised:
                ad._heads(q, k, v, masks, keep, rows)
            assert str(raised.value) == str(exc)
            return
        out, weights, grads = ad._heads(q, k, v, masks, keep, rows)
        for got, want in zip((out, weights, *grads(upstream)), (want_out, want_weights, *want_grads(upstream))):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_row_max_equals_numpy_max_bit_for_bit(self):
        """Taken down the columns, the row max is numpy's, with ``-inf``, NaN of either sign and zero lanes."""
        rng = np.random.default_rng(43)
        for width in range(1, 41):
            p = rng.normal(size=(3, 40, width))
            for lane, share in ((NEG_INF, 0.4), (np.nan, 0.02), (-np.nan, 0.02), (0.0, 0.1)):
                p[rng.random(p.shape) < share] = lane
            p[1] = -np.abs(p[1])  # zeros are -0 here, +0 elsewhere
            assert ad._row_max(p).tobytes() == p.max(axis=-1, keepdims=True).tobytes()
        # Only a row whose maximum is both +0 and -0 may differ in sign; a {0, -inf} mask leaves no -0.
        assert ad._row_max(np.array([[0.0, -0.0] * 5, [-0.0, 0.0] * 5]))[:, 0].tolist() == [0.0, 0.0]
        assert ad._row_max(np.empty((2, 0))).tolist() == [[NEG_INF], [NEG_INF]]

    @pytest.mark.parametrize("score, floored", [(-600.0, True), (-720.0, False), (-800.0, True)])
    def test_exp_sees_no_lane_below_the_floor_unless_one_lies_in_the_band(self, score, floored, monkeypatch):
        """With a masked lane, ``np.exp`` sees the lanes raised to ``ad.EXP_FLOOR``, unless an open lane lies
        in [-746, -700), whose tiny weight the floor would zero: then it sees the raw lanes."""
        q, k, v = np.ones((1, 3, 1)), np.array([[[0.0], [score], [5.0]]]), np.array([[[1.0], [2.0], [3.0]]])
        masks = [np.array([[[0.0, 0.0, NEG_INF]]])]  # every row's lanes reach exp as [0, score, -inf]
        seen, exp = [], np.exp

        def spy(x, *args, **kwargs):
            seen.append(x.min())
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        out, weights, _ = ad._heads(q, k, v, masks, None, np.arange(1))
        monkeypatch.undo()
        assert seen == [ad.EXP_FLOOR if floored else NEG_INF]
        want_out, want_weights, _ = heads_per_head(q, k, v, masks, None, np.arange(1))
        assert (out.tobytes(), weights.tobytes()) == (want_out.tobytes(), want_weights.tobytes())
        assert (weights[0, 0, 0, 1] > 0.0) == (score > ad.UNDERFLOW)

    def test_a_second_backward_pass_gets_the_same_gradients(self):
        """The first backward pass writes dP over the forward's dropped weights; a second one recomputes them."""
        rng = np.random.default_rng(42)
        q, k, v, masks = self.packed_inputs(rng)
        keep = dropout_keep((2, 2, 3, 3), 0.3, rng)
        upstream = rng.normal(size=(2, 3, 4))
        _, _, grads = ad._heads(q, k, v, masks, keep, np.arange(2))
        first = [grad.copy() for grad in grads(upstream)]
        for grad, again in zip(first, grads(upstream), strict=True):
            assert grad.tobytes() == again.tobytes()

    def test_returned_weights_are_read_only(self):
        """The weights are the buffer the backward pass reads: writing to them raises and leaves the gradients be."""
        rng = np.random.default_rng(41)
        valid = np.arange(56) < np.array([56, 5])[:, None]
        q, k, v = (rng.normal(size=(61, 4)) for _ in "qkv")
        upstream = rng.normal(size=(61, 4))
        two_tiers = ad.Plan.build(np.array([56, 5]), [valid[:, None, :]] * 2)
        assert len(two_tiers.tiers) == 2
        for plan in (square_plan(*[np.ones((61, 61), dtype=bool)] * 2), two_tiers):
            grads = []
            for write in (False, True):
                tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
                out, weights = ad.attention(*tensors, plan)
                for block in weights:
                    assert not block.flags.writeable
                    if write:
                        with pytest.raises(ValueError, match="read-only"):
                            block[...] = 0.25
                ad.backward(tensor_sum(ad.mul(out, upstream)))
                grads.append([t.grad for t in tensors])
            for untouched, written in zip(*grads):
                npt.assert_array_equal(written, untouched)


class TestTieredAttention:
    """Tiers of batch rows change only how ``ad.attention`` lays out packed rows, not what it computes."""

    HEADS, D_K = 3, 2

    @classmethod
    def batch(cls, lengths, seed):
        """Packed q, k and v rows, the (B,) ``lengths`` and boolean blocks that close padded keys, as a batch's do: a
        role's (B, n, n) block, the (B, 1, n) row of valid keys, and the role's block again."""
        rng = np.random.default_rng(seed)
        lengths = np.asarray(lengths)
        n = int(lengths.max())
        valid = np.arange(n) < lengths[:, None]
        allowed = (rng.random((len(lengths), n, n)) < 0.5) | np.eye(n, dtype=bool)
        allowed = (allowed | ~valid[:, :, None]) & valid[:, None, :]  # a padded query sees every valid key
        rows = [rng.normal(size=(int(lengths.sum()), cls.HEADS * cls.D_K)) for _ in "qkv"]
        return rows, lengths, [allowed, valid[:, None, :], allowed]

    @settings(max_examples=60)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=16),
        rate=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[6] * 5, rate=0.3, seed=1)  # equal lengths: one tier
    @example(lengths=[3, 1, 2], rate=0.3, seed=2)  # a 1-token sentence
    @example(lengths=[1, 30, 1, 1, 30] + [1] * 7, rate=0.3, seed=3)  # the plan's two tiers
    @example(lengths=[1] * 10 + [30, 30], rate=0.3, seed=3)  # two tiers whose rows run in batch order
    @example(lengths=[40, 1, 20, 1, 20, 1, 20, 1, 20, 40, 1, 20, 1, 1, 1, 1], rate=0.3, seed=4)  # three tiers
    def test_tiers_equal_the_one_tier_node(self, lengths, rate, seed):
        """Outputs, q/k/v gradients and weights at valid pairs equal those of a tier-free reference, the per-head
        kernel ``oracles.heads_per_head`` on the (B, n, ·) padded layout under the same multipliers; the planned
        weights at padded keys are 0."""
        rows, lengths, masks = self.batch(lengths, seed)
        b, n, heads = len(lengths), int(lengths.max()), self.HEADS
        valid = masks[1][:, 0]
        keep = dropout_keep((heads, b, n, n), rate, np.random.default_rng(seed))
        upstream = np.random.default_rng(seed + 1).normal(size=(rows[0].shape[0], heads * self.D_K))
        tensors = [Tensor(a, requires_grad=True) for a in rows]
        plan = ad.Plan.build(lengths, masks)
        out, blocks = ad.attention(*tensors, plan, cut_keep(plan, keep))
        ad.backward(tensor_sum(ad.mul(out, upstream)))
        weights = spread_weights(plan, blocks)

        padded = [np.zeros((b, n, a.shape[-1])) for a in (*rows, upstream)]
        for grid, a in zip(padded, (*rows, upstream)):
            grid[valid] = a
        *operands, padded_upstream = padded
        masks = [np.where(mask, 0.0, NEG_INF) for mask in masks]
        want_out, want_weights, grads = heads_per_head(*operands, masks, keep, np.arange(b))
        pairs = valid[:, :, None] & valid[:, None, :]
        npt.assert_allclose(out.data, want_out[valid], rtol=0, atol=1e-12)
        npt.assert_allclose(weights[:, pairs], want_weights[:, pairs], rtol=0, atol=1e-12)
        assert np.all(weights[:, valid[:, :, None] & ~valid[:, None, :]] == 0.0)
        for tensor, want in zip(tensors, grads(padded_upstream), strict=True):  # padded rows pass on no gradient
            npt.assert_allclose(tensor.grad, want[valid], rtol=0, atol=1e-12)

    @settings(max_examples=40)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=16), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[6] * 5, seed=1)  # equal lengths: one tier
    @example(lengths=[1, 30, 1, 1, 30] + [1] * 7, seed=3)  # the plan's two tiers
    @example(lengths=[1] * 10 + [30, 30], seed=3)  # two tiers whose rows run in batch order
    @example(lengths=[40, 1, 20, 1, 20, 1, 20, 1, 20, 40, 1, 20, 1, 1, 1, 1], seed=4)
    def test_plan_masks_are_the_cut_boolean_blocks_bit_for_bit(self, lengths, seed):
        """In every tier, each head's mask is the {0, -inf} form of its block cut along the block's own axes: a
        role's (B, n, n) block to (count, width, width), the (B, 1, n) key row to (count, 1, width), and a shared
        (n, n) block to (width, width). A block that two heads share stays one mask. So it goes for a lone tier,
        which cuts nothing, and among several, also when their rows run in batch order."""
        _, lengths, allowed = self.batch(lengths, seed)
        b, n = len(lengths), int(lengths.max())
        shared = np.random.default_rng(seed).random((n, n)) < 0.5
        allowed = [*allowed, shared]
        plan = ad.Plan.build(lengths, allowed)
        for tier, rows in zip(plan.tiers, tier_plan(lengths), strict=True):
            width = int(lengths[rows].max())
            assert (tier.rows.tolist(), tier.width) == (rows.tolist(), width)
            block, key_row, same, square = tier.masks
            assert key_row.shape == (len(rows), 1, width)
            assert same is block  # a block shared by two heads is converted once
            for mask, cut in (
                (block, allowed[0][rows, :width, :width]),
                (key_row, allowed[1][rows, :, :width]),
                (square, shared[:width, :width]),
            ):
                want = np.where(cut, 0.0, NEG_INF)
                assert (mask.dtype, mask.shape, mask.tobytes()) == (want.dtype, want.shape, want.tobytes())
        with pytest.raises(ShapeMismatchError, match="attention masks"):
            ad.Plan.build(lengths, [allowed[0], np.ones((b + 1, n, n), bool)])

    def test_plan_rejects_additive_masks(self):
        """A {0, -inf} mask in place of a boolean block would come out inverted, so it is refused by its dtype."""
        for lengths in (np.array([3, 2]), np.array([56, 5])):  # one tier, and two
            n = int(lengths.max())
            valid = np.arange(n) < lengths[:, None]
            additive = np.where(np.eye(n, dtype=bool), 0.0, NEG_INF)[None]
            with pytest.raises(ShapeMismatchError, match=r"boolean, got \['bool', 'float64'\]"):
                ad.Plan.build(lengths, [valid[:, None, :], additive])

    def test_plan_rejects_tiers_blocks_and_rows_it_cannot_lay_out(self):
        """No blocks, a block of another shape, or lengths that are not a vector of integers >= 1 each raise, in a
        lone tier as among several."""
        for lengths, count in ((np.array([4, 1, 3, 2]), 1), (np.array([56, 1, 30, 2]), 2)):
            b, n = len(lengths), int(lengths.max())
            key_row = (np.arange(n) < lengths[:, None])[:, None, :]
            assert len(ad.Plan.build(lengths, [key_row]).tiers) == count
            cases = [
                ([], "at least one mask"),
                ([key_row, np.ones((b, n, 3), dtype=bool)],
                 rf"masks \[\({b}, 1, {n}\), \({b}, {n}, 3\)\] vs \({b}, {n}, {n}\)"),
                ([np.ones((b - 1, n, n), dtype=bool)], rf"vs \({b}, {n}, {n}\)"),
                ([np.ones((2, 1, n, n), dtype=bool)], rf"vs \({b}, {n}, {n}\)"),
            ]
            for allowed, message in cases:
                with pytest.raises(ShapeMismatchError, match=message):
                    ad.Plan.build(lengths, allowed)
        lengths = np.array([4, 1, 3, 2])
        key_row = (np.arange(4) < lengths[:, None])[:, None, :]
        for bad, shown in (
            (np.array([4, 0, 3, 2]), r"\[4, 0, 3, 2\]"),
            (lengths[None], r"\[\[4, 1, 3, 2\]\]"),
            (np.array([], dtype=np.int64), r"\[\]"),
            (lengths.astype(float), r"\[4.0, 1.0, 3.0, 2.0\]"),
            (lengths.astype(np.uint64), r"\[4, 1, 3, 2\]"),  # unsigned lengths would turn the layout's index to float
        ):
            with pytest.raises(ShapeMismatchError, match=r"must be a vector of signed integers >= 1, got " + shown):
                ad.Plan.build(bad, [key_row])

    def test_a_closed_row_is_named_by_its_batch_row(self):
        """In a lone tier as among several, where row 4 of batch row 7 is row 1 of the second tier."""
        for lengths, tiers in (
            ([1, 1, 1, 30, 1, 1, 1, 30, 1, 1, 1, 1], [[0, 1, 2, 4, 5, 6, 8, 9, 10, 11], [3, 7]]),
            ([29, 28, 30, 27, 30, 30, 29, 30], [list(range(8))]),
        ):
            rows, lengths, masks = self.batch(lengths, 5)
            closed = masks[1].repeat(30, axis=1)
            closed[7, 4] = False
            plan = ad.Plan.build(lengths, [masks[0], closed, masks[2]])
            assert [tier.rows.tolist() for tier in plan.tiers] == tiers
            with pytest.raises(DegenerateRowError, match=r"head 1: every key of row \(7, 4\) is masked"):
                ad.attention(*rows, plan)


class TestBackward:
    def test_linear_case_outer_product(self):
        rng = np.random.default_rng(26)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 2)))
        ad.backward(tensor_sum(ad.matmul(w, x)))
        npt.assert_allclose(w.grad, np.ones((3, 2)) @ x.data.T, atol=1e-12)

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.backward(Tensor(np.zeros((2, 2))))

    def test_unreachable_parameter_gets_zero(self):
        used = Tensor(np.ones((2, 2)), requires_grad=True, name="used")
        unused = Tensor(np.ones((2, 2)), requires_grad=True, name="unused")
        ad.backward(tensor_sum(used), params={"used": used, "unused": unused})
        npt.assert_array_equal(unused.grad, np.zeros((2, 2)))
        npt.assert_array_equal(used.grad, np.ones((2, 2)))

    def test_shared_node_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, 4.0))
        ad.backward(tensor_sum(y))
        npt.assert_array_equal(x.grad, [[7.0]])

    def test_second_backward_adds_the_same_leaf_gradients(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        loss = tensor_sum(ad.mul(ad.mul(x, 2.0), 3.0))
        ad.backward(loss)
        npt.assert_array_equal(x.grad, [[6.0, 6.0]])
        ad.backward(loss)
        npt.assert_array_equal(x.grad, [[12.0, 12.0]])

    def test_interior_gradients_are_freed_and_leaves_keep_theirs(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)))
        hidden = ad.matmul(x, w)
        activated = ad.relu(ad.add(hidden, b))
        loss = ad.cross_entropy(activated, np.array([0, 3]))
        ad.backward(loss)
        assert [t.grad for t in (loss, activated, hidden)] == [None, None, None]
        assert w.grad.shape == w.shape and b.grad.shape == b.shape
        assert x.grad is None  # a constant leaf gets no gradient

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
        lengths = np.array([2, 3])
        valid = np.arange(3) < lengths[:, None]
        proj = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        allowed = [~np.eye(3, dtype=bool)] * 2
        every_position = square_plan(*[np.broadcast_to(allowed[0], (2, 3, 3))] * 2)

        def build_and_backward():
            x = ad.embedding(table, ids)
            scores = ad.add(ad.matmul(x, transpose_last(x)), Tensor(mask))
            attended = ad.matmul(softmax_rows(ad.mul(scores, 0.5)), x)
            keep = dropout_keep((2, 2, 3, 3), 0.5, np.random.default_rng(1))
            flat = reshape(x, (6, 4))
            fused, _ = ad.attention(flat, flat, flat, every_position, lambda shape: keep)
            joined = ad.matmul(concat_last([attended, ad.relu(reshape(fused, (2, 3, 4)))]), proj)
            h = ad.layer_norm(joined, gain, bias)
            h = ad.mul(h, dropout_keep(h.shape, 0.25, np.random.default_rng(0)))
            rows = ad.embedding(table, ids[valid])
            packed, _ = ad.attention(rows, rows, rows, ad.Plan.build(lengths, allowed), lambda shape: keep)
            pooled = ad.packed_mean(packed, lengths)
            long_rows = ad.embedding(table, np.arange(61) % 5)
            two_tiers = ad.Plan.build(np.array([56, 5]), [(np.arange(56) < np.array([[56], [5]]))[:, None, :]] * 2)
            long_keep = dropout_keep((2, 2, 56, 56), 0.5, np.random.default_rng(2))
            tiered, _ = ad.attention(long_rows, long_rows, long_rows, two_tiers, cut_keep(two_tiers, long_keep))
            logits = ad.add(ad.add(masked_mean(h, valid), pooled), ad.packed_mean(tiered, np.array([56, 5])))
            loss = ad.add(ad.cross_entropy(logits, np.array([1, 2])), tensor_sum(x))
            ad.backward(loss)

        gc.collect()
        gc.disable()
        try:
            build_and_backward()
            assert gc.collect() == 0
        finally:
            gc.enable()
