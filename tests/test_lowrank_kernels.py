"""Property tests for the blocked error-feedback kernel and what rests on it.

The kernel (:mod:`repro.compression.lowrank_kernels`) is the only place
Power-SGD and ACP-SGD touch a full-size matrix, so the dense three-line
reference lives here and everything is checked against it: the kernel
itself over awkward shapes, error-feedback conservation, orthonormality of
the carried factor, cross-rank agreement of the shared factors, and the
aggregators against a per-rank ``compress -> mean -> adopt`` oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.comm.process_group import ProcessGroup
from repro.compression import lowrank_kernels
from repro.compression.lowrank import LowRankState
from repro.compression.lowrank_kernels import (
    BlockedProjector,
    block_rows,
    blocked_matmul,
)
from repro.optim.aggregators import make_aggregator
from repro.perf.arena import GradientArena


def power_sgd(rank, **kwargs):
    """Power-SGD: the low-rank state running two halves per step."""
    return LowRankState(rank, halves_per_step=2, **kwargs)


def rel_err(actual, expected, scale=None):
    scale = np.linalg.norm(expected) if scale is None else scale
    return np.linalg.norm(np.asarray(actual) - expected) / max(scale, 1e-300)


# (n, m) pairs hitting every block regime: several blocks with a ragged
# tail, fewer rows than one block, one-row blocks (m > 65536), and factors
# wider than either dimension (the ranks below go up to 5).
EDGE_SHAPES = [
    (150, 1024),  # 64-row blocks: 64 + 64 + 22
    (64, 1024),  # exactly one block
    (37, 4096),  # 16-row blocks: 16 + 16 + 5
    (3, 70000),  # rows = 1
    (2, 9),  # n < r
    (9, 2),  # m < r
    (1, 1),
    (7000, 12),  # 5461-row blocks: 5461 + 1539
]
small_shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))


def check_right_projection(shape, rank, seed, subtract):
    n, m = shape
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=(n, m))
    error = rng.normal(size=(n, m))
    basis = rng.normal(size=(m, rank)) / np.sqrt(m)
    accumulator = error + grad  # what backward leaves in the slot
    factor = BlockedProjector().project_right(accumulator, basis, subtract)
    # The dense reference: work = g + e; f = work @ B; e' = work - f @ B.T
    work = grad + error
    expected = work @ basis
    assert rel_err(factor, expected) <= 1e-12
    after = work - expected @ basis.T if subtract else work
    assert rel_err(accumulator, after, np.linalg.norm(work)) <= 1e-12


def check_left_projection(shape, rank, seed, add):
    """``add``: the accumulator holds a gradient on top of the residual
    (ACP-SGD's even step); otherwise only what is left of one (Power-SGD's
    stage 2, after stage 1 read it)."""
    n, m = shape
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=(n, m))
    error = rng.normal(size=(n, m))
    basis = rng.normal(size=(n, rank)) / np.sqrt(n)
    work = grad + error if add else error
    accumulator = work.copy()
    factor = BlockedProjector().project_left(accumulator, basis)
    expected = work.T @ basis
    assert rel_err(factor, expected) <= 1e-12
    after = work - basis @ expected.T
    assert rel_err(accumulator, after, np.linalg.norm(work)) <= 1e-12


class TestBlockedKernelMatchesDense:
    def test_block_rows_is_a_function_of_width_only(self):
        assert block_rows(1024) == 64
        assert block_rows(65536) == 1
        assert block_rows(70000) == 1
        assert block_rows(1) == 65536

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("flag", [True, False])
    def test_edge_shapes(self, shape, flag):
        check_right_projection(shape, rank=5, seed=1, subtract=flag)
        check_left_projection(shape, rank=5, seed=2, add=flag)

    def test_one_projector_serves_tensors_of_different_widths(self):
        """The scratch is grow-only and re-viewed per block shape."""
        rng = np.random.default_rng(0)
        projector = BlockedProjector()
        for n, m in [(5, 7), (150, 1024), (3, 2), (37, 4096)]:
            grad = rng.normal(size=(n, m))
            basis = rng.normal(size=(m, 2)) / np.sqrt(m)
            accumulator = grad.copy()
            factor = projector.project_right(accumulator, basis, subtract=True)
            assert rel_err(factor, grad @ basis) <= 1e-12
            expected = grad - (grad @ basis) @ basis.T
            assert rel_err(accumulator, expected, np.linalg.norm(grad)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        shape=small_shapes,
        rank=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        subtract=st.booleans(),
    )
    def test_property_right_projection(self, shape, rank, seed, subtract):
        check_right_projection(shape, rank, seed, subtract)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=small_shapes,
        rank=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        add=st.booleans(),
    )
    def test_property_left_projection(self, shape, rank, seed, add):
        check_left_projection(shape, rank, seed, add)

    def test_fresh_residual_is_the_bitwise_additive_identity(self):
        """An empty carried view (``-0.0``) plus a gradient is the gradient,
        signed zeros included."""
        grad = np.array([[0.0, -0.0, 1.5], [-2.0, np.pi, 1e-300]])
        arena = GradientArena([("w", grad)], 1)
        arena.carry(["w"])
        arena.load(0, {"w": grad})
        assert arena.grads(0)["w"].tobytes() == grad.tobytes()

    def test_without_residual_projects_the_gradient_and_writes_nothing(self):
        """Error feedback off: one plain product of a read-only gradient."""
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(6, 8))
        grad.flags.writeable = False
        acp = LowRankState(rank=2, seed=0, use_error_feedback=False)
        factor = acp.compress("w", grad, 1)
        np.testing.assert_array_equal(factor, grad @ acp._carried["w"])
        acp.adopt("w", factor, 1)
        factor = acp.compress("w", grad, 2)
        np.testing.assert_array_equal(factor, grad.T @ acp._carried["w"])
        power = power_sgd(rank=2, seed=0, use_error_feedback=False)
        p = power.compress("w", grad, 1)
        assert power._carried["w"] is power._q["w"]  # the query as it is
        np.testing.assert_array_equal(p, grad @ power._q["w"])
        power.adopt("w", p, 1)
        q = power.compress("w", grad, 2)
        np.testing.assert_array_equal(q, grad.T @ power._carried["w"])


WIDTHS = [5, 767, 768, 1023, 4097]


def product_heights(m):
    """Row counts around the block height of :func:`blocked_matmul` at width ``m``."""
    h = max(2, lowrank_kernels._PRODUCT_ELEMENTS // m)
    return h, sorted({1, 2, h - 1, h, h + 1, 2 * h + 1})


def slot_storage(shape, offset, dtype=np.float64):
    """A NaN-filled ``shape`` view at ``offset`` elements into its buffer."""
    storage = np.full(int(np.prod(shape)) + offset, np.nan, dtype)
    return storage, storage[offset:].reshape(shape)


class TestBlockedProduct:
    """The one product kernel of ``P Q^T`` and of the Linear weight gradient."""

    @pytest.mark.parametrize("m", WIDTHS + [20000])
    def test_blocks_are_a_function_of_width_and_never_one_row(self, m, monkeypatch):
        real_matmul, heights = np.matmul, []

        def spy(a, b, **kwargs):
            heights.append(a.shape[0])
            return real_matmul(a, b, **kwargs)

        rng = np.random.default_rng(m)
        h, counts = product_heights(m)
        for n in counts + [2 * h, 2 * h + 2, 3 * h + 1]:
            a, b = rng.normal(size=(4, n)).T, rng.normal(size=(4, m))
            heights.clear()
            monkeypatch.setattr(np, "matmul", spy)
            product = lowrank_kernels.blocked_matmul(a, b)
            monkeypatch.undo()
            assert sum(heights) == n
            assert heights[:-1] == [h] * (len(heights) - 1), n
            assert heights[-1] <= h + 1 and (n == 1 or heights[-1] >= 2), n
            np.testing.assert_allclose(product, a @ b, rtol=1e-13, atol=1e-12)

    @staticmethod
    def check_adopted_product(state, rng, n, m):
        """Two steps; after each, ``P Q^T`` of the adopted pair is one
        kernel into a fresh array and into a slot view, P and Q side."""
        for step in (1, 2):
            matrix = rng.normal(size=(n, m))
            for half in state.halves(step):
                p, q = state.adopt("w", state.compress("w", matrix, half), half)
            hat = blocked_matmul(p, q.T)
            storage, slot = slot_storage((n, m), offset=step - 1)
            assert blocked_matmul(p, q.T, out=slot) is slot
            assert np.shares_memory(slot, storage)
            assert slot.tobytes() == hat.tobytes(), (n, step)
            np.testing.assert_allclose(hat, p @ q.T, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_acpsgd_finalize_is_one_kernel_with_and_without_out(self, m):
        rng = np.random.default_rng(m)
        for n in product_heights(m)[1]:
            self.check_adopted_product(LowRankState(rank=4, seed=1), rng, n, m)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_powersgd_reconstruct_is_one_kernel_with_and_without_out(self, m):
        rng = np.random.default_rng(m)
        for n in product_heights(m)[1]:
            self.check_adopted_product(power_sgd(rank=4, seed=1), rng, n, m)

    def test_add_needs_an_out(self):
        """There is nothing to add a product into without ``out``: it used
        to be added onto uninitialised memory."""
        a, b = np.ones((3, 2)), np.ones((2, 4))
        with pytest.raises(ValueError, match="out="):
            lowrank_kernels.blocked_matmul(a, b, add=True)
        out = np.ones((3, 4))
        assert lowrank_kernels.blocked_matmul(a, b, out=out, add=True) is out
        np.testing.assert_array_equal(out, np.full((3, 4), 3.0))


# Around every product-block regime, the perfbench widths among them.
FACTORED_WIDTHS = [5, 10, 255, 767, 768, 1023, 1024, 4097]


def thin_product(rng, n, m, k):
    """``(a, b)`` as ``Linear`` hands them over: ``a`` a transposed view."""
    return rng.normal(size=(k, n)).T, rng.normal(size=(k, m))


class TestFactoredOperand:
    """``compress(E, factors=(a, b))`` == ``compress(E + a @ b)``: the
    gradient handed over as its factors, never formed."""

    @pytest.mark.parametrize("m", FACTORED_WIDTHS)
    @pytest.mark.parametrize("k", [1, 4, 33])
    def test_factored_sweep_matches_dense(self, m, k):
        """Rows 1, 2, h − 1, h, h + 1, 2h + 1 around the product block height
        h (2h + 1 merges a one-row tail); a P step then a Q step on a
        shared basis; factors and residuals to 1e-12 of the dense path."""
        rng = np.random.default_rng(m * k)
        for n in product_heights(m)[1]:
            dense, factored = LowRankState(rank=4, seed=1), LowRankState(rank=4, seed=1)
            acc_dense = rng.normal(size=(n, m))
            acc_factored = acc_dense.copy()
            for step in (1, 2):
                a, b = thin_product(rng, n, m, k)
                # Today's producer: the product added onto the residual.
                lowrank_kernels.blocked_matmul(a, b, out=acc_dense, add=True)
                scale = np.linalg.norm(acc_dense)
                want = dense.compress("w", acc_dense, step)
                got = factored.compress("w", acc_factored, step, factors=(a, b))
                case = (n, step)
                assert got.shape == want.shape, case
                assert rel_err(got, want) <= 1e-12, case
                assert rel_err(acc_factored, acc_dense, scale) <= 1e-12, case
                dense.adopt("w", want, step)
                factored.adopt("w", want, step)

    def test_factors_need_error_feedback(self):
        factors = (np.ones((4, 1)), np.ones((1, 5)))
        state = LowRankState(rank=2, use_error_feedback=False)
        with pytest.raises(ValueError, match="error feedback"):
            state.compress("w", np.zeros((4, 5)), 1, factors=factors)
        # Power-SGD's P half only reads the accumulator: no factors there.
        with pytest.raises(ValueError, match="one-half step"):
            power_sgd(rank=2).compress("w", np.zeros((4, 5)), 1, factors=factors)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        k=st.integers(1, 8),
        rank=st.integers(1, 5),
        world=st.integers(2, 4),
        factored=st.booleans(),
        seed=st.integers(0, 10_000),
        halves_per_step=st.sampled_from([1, 2]),
    )
    @example(shape=(10, 1024), k=4, rank=4, world=4, factored=True, seed=0,
             halves_per_step=1)
    @example(shape=(10, 1024), k=4, rank=4, world=4, factored=False, seed=0,
             halves_per_step=1)
    @example(shape=(3, 20), k=5, rank=5, world=2, factored=True, seed=1,
             halves_per_step=1)
    @example(shape=(10, 1024), k=4, rank=4, world=4, factored=False, seed=0,
             halves_per_step=2)
    def test_property_additive_under_a_shared_basis(
        self, shape, k, rank, world, factored, seed, halves_per_step
    ):
        """Mean of the ranks' factors == factor of the mean accumulator,
        and likewise the residuals: what lets ACP-SGD's one factor ride a
        summing all-reduce (§IV-A). Both operand forms; ``K`` may exceed
        ``min(n, m)`` and ``r`` the effective rank. Power-SGD's halves too
        (its gradient added, as it takes no factors): the P half projects
        on the query every rank shares, so its P sums under ring reduction
        like ACP-SGD's, and it leaves the accumulators as they were."""
        n, m = shape
        factored = factored and halves_per_step == 1
        rng = np.random.default_rng(seed)
        *states, oracle = [
            LowRankState(rank, seed=3, halves_per_step=halves_per_step)
            for _ in range(world + 1)
        ]
        residuals = [rng.normal(size=shape) for _ in range(world)]
        for step in (1, 2):
            grads = [thin_product(rng, n, m, k) for _ in range(world)]
            mean_acc = np.mean(
                [e + a @ b for e, (a, b) in zip(residuals, grads)], axis=0
            )
            scale = np.linalg.norm(mean_acc)
            if not factored:
                for e, (a, b) in zip(residuals, grads):
                    e += a @ b
            for half in oracle.halves(step):
                factors = [
                    s.compress("w", e, half, factors=g if factored else None)
                    for s, e, g in zip(states, residuals, grads)
                ]
                mean = np.mean(factors, axis=0)
                want = oracle.compress("w", mean_acc, half)
                assert rel_err(mean, want) <= 1e-12, half
                assert rel_err(np.mean(residuals, axis=0), mean_acc, scale) <= 1e-12
                for state in states + [oracle]:
                    state.adopt("w", mean, half)


def _input_variants(rng):
    """(label, array) inputs that are not plain float64 C-contiguous."""
    base = rng.normal(size=(24, 18))
    read_only = rng.normal(size=(12, 18))
    read_only.flags.writeable = False
    return [
        ("float32", rng.normal(size=(12, 18)).astype(np.float32)),
        ("transposed", base[:18].T[:12]),
        ("strided", base[::2]),
        ("read-only", read_only),
    ]


def _feed(matrix, accumulator):
    """What the states compress: the gradient itself without error
    feedback, else the float64 accumulator it is added into (the slot)."""
    if accumulator is None:
        return matrix
    accumulator += matrix
    return accumulator


class TestInputsAreOnlyRead:
    """float32, non-contiguous and read-only gradients are accepted, give
    the factors of their C-contiguous copies (in their own dtype), and are
    never written — without error feedback compressed as they are, with it
    added into the accumulator the states project and correct in place."""

    @pytest.mark.parametrize("use_ef", [True, False])
    def test_acpsgd_compress(self, use_ef, rng):
        for label, matrix in _input_variants(rng):
            reference = np.ascontiguousarray(matrix)
            before = matrix.copy()
            state = LowRankState(rank=3, seed=5, use_error_feedback=use_ef)
            oracle = LowRankState(rank=3, seed=5, use_error_feedback=use_ef)
            acc, ref_acc = (
                (np.full(matrix.shape, -0.0), np.full(matrix.shape, -0.0))
                if use_ef else (None, None)
            )
            for step in (1, 2, 3):
                factor = state.compress("w", _feed(matrix, acc), step)
                expected = oracle.compress("w", _feed(reference, ref_acc), step)
                assert factor.dtype == (np.float64 if use_ef else matrix.dtype)
                assert rel_err(factor, expected) <= 1e-12, (label, step)
                state.adopt("w", factor, step)
                oracle.adopt("w", expected, step)
            np.testing.assert_array_equal(matrix, before, err_msg=label)
            assert matrix.dtype == before.dtype

    @pytest.mark.parametrize("use_ef", [True, False])
    def test_powersgd_stages(self, use_ef, rng):
        for label, matrix in _input_variants(rng):
            reference = np.ascontiguousarray(matrix)
            before = matrix.copy()
            state = power_sgd(rank=3, seed=5, use_error_feedback=use_ef)
            oracle = power_sgd(rank=3, seed=5, use_error_feedback=use_ef)
            acc, ref_acc = (
                (np.full(matrix.shape, -0.0), np.full(matrix.shape, -0.0))
                if use_ef else (None, None)
            )
            for step in (1, 2):
                work, ref_work = _feed(matrix, acc), _feed(reference, ref_acc)
                for half in state.halves(step):  # P, then Q
                    factor = state.compress("w", work, half)
                    expected = oracle.compress("w", ref_work, half)
                    assert rel_err(factor, expected) <= 1e-12, (label, half)
                    state.adopt("w", factor, half)
                    oracle.adopt("w", expected, half)
            np.testing.assert_array_equal(matrix, before, err_msg=label)
            assert matrix.dtype == before.dtype


@st.composite
def gradient_streams(draw, steps=6):
    """(world, rank, per-step per-worker matrices) incl. degenerate steps."""
    world = draw(st.integers(1, 3))
    n = draw(st.integers(2, 14))
    m = draw(st.integers(2, 14))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kinds = draw(
        st.lists(
            st.sampled_from(["dense", "dense", "zero", "rank1"]),
            min_size=steps,
            max_size=steps + 2,
        )
    )
    stream = []
    for kind in kinds:
        if kind == "zero":
            stream.append([np.zeros((n, m)) for _ in range(world)])
        elif kind == "rank1":
            stream.append(
                [np.outer(rng.normal(size=n), rng.normal(size=m))
                 for _ in range(world)]
            )
        else:
            stream.append([rng.normal(size=(n, m)) for _ in range(world)])
    return world, rank, stream


def assert_orthonormal(factor):
    gram = factor.T @ factor
    np.testing.assert_allclose(gram, np.eye(factor.shape[1]), atol=1e-8)


class TestErrorFeedbackInvariants:
    """(b) conservation and (c) orthonormality, on the bare states."""

    @settings(max_examples=25, deadline=None)
    @given(data=gradient_streams())
    def test_property_acpsgd_conserves_gradient_mass(self, data):
        """Sum of gradients == sum of locally transmitted P Q^T + residual
        (Algorithm 2 lines 6/11), and the carried factor stays orthonormal."""
        world, rank, stream = data
        states = [LowRankState(rank=rank, seed=3) for _ in range(world)]
        accumulators = [np.full(stream[0][0].shape, -0.0) for _ in range(world)]
        total_in = [0.0] * world
        total_sent = [0.0] * world
        for step, grads in enumerate(stream, start=1):
            factors = []
            for w, state in enumerate(states):
                accumulators[w] += grads[w]
                factor = state.compress("w", accumulators[w], step)
                carried = state._carried["w"]
                assert_orthonormal(carried)
                sent = (
                    factor @ carried.T
                    if LowRankState.compresses_p(step)
                    else carried @ factor.T
                )
                total_in[w] = total_in[w] + grads[w]
                total_sent[w] = total_sent[w] + sent
                factors.append(factor)
            mean = np.mean(factors, axis=0)
            for state in states:
                state.adopt("w", mean, step)
        for w, state in enumerate(states):
            scale = max(np.linalg.norm(total_in[w]), 1.0)
            gap = total_sent[w] + accumulators[w] - total_in[w]
            assert np.linalg.norm(gap) / scale <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(data=gradient_streams())
    def test_property_powersgd_conserves_gradient_mass(self, data):
        """Same identity with Vogels' local-Q residual; P_hat orthonormal."""
        world, rank, stream = data
        states = [power_sgd(rank=rank, seed=3) for _ in range(world)]
        accumulators = [np.full(stream[0][0].shape, -0.0) for _ in range(world)]
        total_in = [0.0] * world
        total_sent = [0.0] * world
        for step, grads in enumerate(stream, start=1):
            for accumulator, grad in zip(accumulators, grads):
                accumulator += grad
            p_half, q_half = states[0].halves(step)
            p_mean = np.mean(
                [s.compress("w", a, p_half) for s, a in zip(states, accumulators)],
                axis=0,
            )
            for state in states:
                state.adopt("w", p_mean, p_half)
            q_locals = []
            for w, state in enumerate(states):
                q_local = state.compress("w", accumulators[w], q_half)
                p_hat = state._carried["w"]
                assert_orthonormal(p_hat)
                total_in[w] = total_in[w] + grads[w]
                total_sent[w] = total_sent[w] + p_hat @ q_local.T
                q_locals.append(q_local)
            q_mean = np.mean(q_locals, axis=0)
            for state in states:
                state.adopt("w", q_mean, q_half)
        for w, state in enumerate(states):
            scale = max(np.linalg.norm(total_in[w]), 1.0)
            gap = total_sent[w] + accumulators[w] - total_in[w]
            assert np.linalg.norm(gap) / scale <= 1e-10


SHAPES = [("fc1.w", (12, 20)), ("fc1.b", (12,)), ("fc2.w", (9, 12)), ("fc2.b", (9,))]


def arena_grads(rng, arena):
    """One step's gradients, written into the slabs as backward writes them
    (added onto the residual in an attached aggregator's carried views)."""
    plain = [
        {name: rng.normal(size=shape) for name, shape in SHAPES}
        for _ in range(arena.world_size)
    ]
    return plain, [arena.load(slot, grads) for slot, grads in enumerate(plain)]


def oracle_step(states, accumulators, plain, step):
    """Per-rank compress -> mean -> adopt for every half of the step, no
    aggregator involved; each rank's compressible gradients go into its own
    accumulators."""
    out = {}
    for name, shape in SHAPES:
        if len(shape) < 2:
            out[name] = np.mean([grads[name] for grads in plain], axis=0)
            continue
        mats = []
        for acc, grads in zip(accumulators, plain):
            acc.setdefault(name, np.full(shape, -0.0))
            acc[name] += grads[name]
            mats.append(acc[name])
        for half in states[0].halves(step):
            mean = np.mean(
                [s.compress(name, g, half) for s, g in zip(states, mats)], axis=0
            )
            pairs = [s.adopt(name, mean, half) for s in states]
        p, q = pairs[0]
        out[name] = p @ q.T
    return out


def assert_ranks_agree(aggregator, world):
    """Every rank holds bit-identical shared factors and no stale scratch —
    what ``warm_start_from`` and reconstruct-once both rest on."""
    first = aggregator.state_for(0)
    for other in map(aggregator.state_for, range(1, world)):
        for mine, theirs in ((first._p, other._p), (first._q, other._q)):
            assert mine.keys() == theirs.keys()
            for name in mine:
                np.testing.assert_array_equal(mine[name], theirs[name])
        assert not other._carried


class TestAggregatorsAgainstOracle:
    """(d) shared factors agree across ranks; (e) aggregate == oracle."""

    @pytest.mark.parametrize("method", ["acpsgd", "powersgd"])
    # None: one bucket (monolithic); 0: one tensor per bucket; 1200: two.
    @pytest.mark.parametrize("bucket_bytes", [None, 0, 1200])
    def test_aggregate_matches_per_rank_oracle(self, method, bucket_bytes, rng):
        world, rank = 3, 2
        aggregator = make_aggregator(method, ProcessGroup(world), rank=rank, seed=7)
        arena = GradientArena(
            [(name, np.zeros(shape)) for name, shape in SHAPES],
            world, bucket_bytes=bucket_bytes,
        )
        aggregator.attach(arena)
        oracle_states = [
            LowRankState(rank, 7, halves_per_step=aggregator.halves_per_step)
            for _ in range(world)
        ]
        accumulators = [{} for _ in range(world)]
        for step in range(1, 7):  # odd and even steps
            plain, per_worker = arena_grads(rng, arena)
            out = aggregator.aggregate(per_worker)
            expected = oracle_step(oracle_states, accumulators, plain, step)
            for name, _ in SHAPES:
                assert rel_err(out[name], expected[name]) <= 1e-12, (name, step)
            assert_ranks_agree(aggregator, world)

    @settings(max_examples=15, deadline=None)
    @given(data=gradient_streams(steps=4), method=st.sampled_from(["acpsgd", "powersgd"]))
    def test_property_ranks_agree_after_every_aggregate(self, data, method):
        world, rank, stream = data
        aggregator = make_aggregator(method, ProcessGroup(world), rank=rank)
        for grads in stream:
            aggregator.aggregate([{"w": g} for g in grads])
            assert_ranks_agree(aggregator, world)


def rng_positions(state):
    return {
        name: rng.bit_generator.state["state"]
        for name, rng in state._fresh_rng.items()
    }


class TestSharedOrthogonalisation:
    """(f) one QR per tensor per step: a rank that adopts a peer's
    orthonormal factor holds the bits it would have computed itself."""

    @pytest.mark.parametrize("reuse_query", [True, False])
    def test_acpsgd_peer_factor_is_bitwise_the_recomputed_one(self, reuse_query, rng):
        world = 3
        alone = [LowRankState(2, seed=3, reuse_query=reuse_query) for _ in range(world)]
        shared = [LowRankState(2, seed=3, reuse_query=reuse_query) for _ in range(world)]
        acc_alone = [np.full((12, 20), -0.0) for _ in range(world)]
        acc_shared = [np.full((12, 20), -0.0) for _ in range(world)]
        for step in range(1, 6):
            grads = [rng.normal(size=(12, 20)) for _ in range(world)]
            for a, b, g in zip(acc_alone, acc_shared, grads):
                a += g
                b += g
            want = [s.compress("w", a, step) for s, a in zip(alone, acc_alone)]
            got = [
                s.compress("w", a, step, shared[0] if slot else None)
                for slot, (s, a) in enumerate(zip(shared, acc_shared))
            ]
            mean = np.mean(want, axis=0)
            for a, b, f_a, f_b, e_a, e_b in zip(
                alone, shared, want, got, acc_alone, acc_shared
            ):
                assert np.array_equal(f_a, f_b)
                assert np.array_equal(a._carried["w"], b._carried["w"])
                for mine, theirs in zip(a.adopt("w", mean, step), b.adopt("w", mean, step)):
                    assert np.array_equal(mine, theirs)
                assert np.array_equal(e_a, e_b)
                # reuse off: a peer's factor does not stall the own stream.
                assert rng_positions(a) == rng_positions(b)

    @pytest.mark.parametrize("reuse_query", [True, False])
    def test_powersgd_peer_p_hat_is_bitwise_the_recomputed_one(self, reuse_query, rng):
        world = 3
        alone = [power_sgd(2, seed=3, reuse_query=reuse_query) for _ in range(world)]
        shared = [power_sgd(2, seed=3, reuse_query=reuse_query) for _ in range(world)]
        acc_alone = [np.full((12, 20), -0.0) for _ in range(world)]
        acc_shared = [np.full((12, 20), -0.0) for _ in range(world)]
        for step in range(1, 5):
            grads = [rng.normal(size=(12, 20)) for _ in range(world)]
            for a, b, g in zip(acc_alone, acc_shared, grads):
                a += g
                b += g
            p_half, q_half = alone[0].halves(step)
            p_mean = np.mean(
                [s.compress("w", a, p_half) for s, a in zip(alone, acc_alone)],
                axis=0,
            )
            for slot, (s, b) in enumerate(zip(shared, acc_shared)):
                s.compress("w", b, p_half, shared[0] if slot else None)
            for s in alone + shared:
                s.adopt("w", p_mean, p_half)
            want = [s.compress("w", a, q_half) for s, a in zip(alone, acc_alone)]
            got = [
                s.compress("w", b, q_half, shared[0] if slot else None)
                for slot, (s, b) in enumerate(zip(shared, acc_shared))
            ]
            q_mean = np.mean(want, axis=0)
            for a, b, q_a, q_b, e_a, e_b in zip(
                alone, shared, want, got, acc_alone, acc_shared
            ):
                assert np.array_equal(q_a, q_b)
                assert np.array_equal(a._carried["w"], b._carried["w"])
                for mine, theirs in zip(
                    a.adopt("w", q_mean, q_half), b.adopt("w", q_mean, q_half)
                ):
                    assert np.array_equal(mine, theirs)
                assert np.array_equal(e_a, e_b)
                assert rng_positions(a) == rng_positions(b)

    @pytest.mark.parametrize("method", ["acpsgd", "powersgd"])
    @pytest.mark.parametrize("reuse_query", [True, False])
    def test_ranks_agree_through_admission_and_a_resilient_group(
        self, method, reuse_query, rng
    ):
        from repro.faults.resilient import ResilientProcessGroup

        group = ResilientProcessGroup(2)
        aggregator = make_aggregator(
            method, group, rank=2, seed=7, reuse_query=reuse_query
        )

        def step(world):
            plain = [
                {name: rng.normal(size=shape) for name, shape in SHAPES}
                for _ in range(world)
            ]
            aggregator.aggregate(plain)
            assert_ranks_agree(aggregator, world)
            positions = [
                rng_positions(aggregator.state_for(r)) for r in range(world)
            ]
            assert all(p == positions[0] for p in positions)

        for _ in range(3):
            step(2)
        group.admit(group.allocate_rank(), rejoin=False)
        aggregator.admit_rank(2, donor_rank=0)
        aggregator.set_roster([0, 1, 2])
        for _ in range(3):
            step(3)

    @pytest.mark.parametrize("method", ["acpsgd", "powersgd"])
    @pytest.mark.parametrize("use_ef", [True, False])
    def test_only_residuals_change(self, method, use_ef, rng):
        """The result is decoded from the factors, never a view of a slab; a
        slab's compressible tensors are its rank's residual with error
        feedback, only read without, and its plain tensors are only read."""
        world = 3
        aggregator = make_aggregator(
            method, ProcessGroup(world), rank=2, use_error_feedback=use_ef
        )
        arena = GradientArena(
            [(name, np.zeros(shape)) for name, shape in SHAPES],
            world, bucket_bytes=1200,
        )
        aggregator.attach(arena)
        twin = make_aggregator(
            method, ProcessGroup(world), rank=2, use_error_feedback=use_ef
        )
        for _ in range(3):
            plain, per_worker = arena_grads(rng, arena)
            before = [grads.slab.copy() for grads in per_worker]
            out = aggregator.aggregate(per_worker)
            for name, shape in SHAPES:
                compressible = len(shape) == 2
                for grads, slab in zip(per_worker, before):
                    assert not np.shares_memory(out[name], grads.slab)
                    unchanged = np.array_equal(
                        grads[name], arena.layout.carve(slab)[name]
                    )
                    assert unchanged == (not (compressible and use_ef)), name
            # Plain dicts go into a private arena the same way: never
            # modified, and the same bits come back.
            copies = [{n: g.copy() for n, g in grads.items()} for grads in plain]
            again = twin.aggregate(plain)
            for name, _ in SHAPES:
                assert np.array_equal(again[name], out[name])
                for grads, copy in zip(plain, copies):
                    assert np.array_equal(grads[name], copy[name])
