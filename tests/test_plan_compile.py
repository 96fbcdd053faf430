"""Tests for the compiled-plan optimization passes.

Covers the elementwise chain fuser (``_FusedElementwise``), the arena
memory planner (static out= buffers and donation), their static audit in
``repro.analysis.verifier`` and the ``supports-out-retains-buffer`` lint
rule.  Model-level eager-vs-replay equivalence of the out=-migrated
kernels runs through the existing runtime/MD suites, which build their
plans with ``optimize=True`` (the default) since this pass landed.
"""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.engine import Tensor, no_grad
from repro.autograd.gradcheck import check_gradients, numerical_gradient
from repro.analysis.lint import lint_paths
from repro.analysis.liveness import analyze_liveness
from repro.analysis.verifier import PlanInvalid, verify_plan
from repro.data import attach_labels, build_training_set
from repro.mace import MACE, MACEConfig
from repro.runtime.plan import CompiledPlan, _FusedElementwise, record_tape
from repro.training import Trainer


@pytest.fixture
def rng():
    return np.random.default_rng(11)


# Fused patterns: each builder returns a scalar loss from (x, c) and
# exercises a different slice of the fusable-op allowlist.
CHAINS = {
    "mul-mul-add-sum": lambda x, c: ((x * c) * 2.0 + 1.0).sum(),
    "exp-tanh-mul-sum": lambda x, c: ((x * 0.1).exp().tanh() * c).sum(),
    "silu-sigmoid-mul": lambda x, c: (F.silu(x) * F.sigmoid(c * x)).sum(),
    "relu-softplus": lambda x, c: (F.softplus(F.relu(x * c)) * 0.5).sum(),
    "neg-div-sub-pow": lambda x, c: (((-x) / c - 1.0) ** 2.0).sum(),
    "log-sqrt-mean": lambda x, c: (((x * x + 1.0).log() + c * c).sqrt()).mean(),
}


def _capture(builder, rng, with_grad=True):
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((6, 4)))
    with record_tape() as tape:
        loss = builder(x, c)
    if with_grad:
        loss.backward()
    plan = CompiledPlan(tape, outputs=(loss,), seed=loss if with_grad else None,
                        inputs=(x,), grad_params=False)
    return plan, x, c, loss


class TestFusedChains:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_replay_matches_eager(self, name, rng):
        plan, x, c, loss = _capture(CHAINS[name], rng)
        assert plan.n_fused_away > 0
        assert any(isinstance(i.fn, _FusedElementwise) for i in plan._forward)
        eager_gx = x.grad.copy()
        for _ in range(3):  # steady state: buffers recycled across replays
            (value,), (gx,) = plan.replay(x.data)
            assert value == pytest.approx(loss.item(), abs=1e-12)
            np.testing.assert_allclose(gx, eager_gx, atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_gradcheck_fused_patterns(self, name, rng):
        # Eager gradcheck of the chain the fuser will collapse...
        x = Tensor(rng.standard_normal((3, 2)) * 0.5 + 1.5, requires_grad=True)
        c = Tensor(rng.standard_normal((3, 2)) * 0.1 + 1.0)
        check_gradients(lambda a: CHAINS[name](a, c), [x])
        # ...and the compiled _FusedElementwise backward against the same
        # numerical reference, through the plan's replay path.
        plan, px, pc, _ = _capture(CHAINS[name], rng)
        num = numerical_gradient(lambda a: CHAINS[name](a, pc), [px], 0)
        _, (gx,) = plan.replay(px.data)
        np.testing.assert_allclose(gx, num, atol=1e-5, rtol=1e-4)

    def test_single_elementwise_feeding_reduction_not_fused(self, rng):
        # A lone op before a reduction saves nothing; fusing it would also
        # break per-op introspection for the minimal training-like plans.
        plan, *_ = _capture(lambda x, c: (x * c).sum(), rng)
        assert plan.n_fused_away == 0

    def test_optimize_false_is_one_to_one(self, rng):
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((6, 4)))
        with record_tape() as tape:
            loss = CHAINS["mul-mul-add-sum"](x, c)
        loss.backward()
        plan = CompiledPlan(tape, outputs=(loss,), seed=loss, inputs=(x,),
                            grad_params=False, optimize=False)
        assert plan.n_fused_away == 0
        assert plan.n_donated == 0
        assert all(i.out_buffer is None and i.donor_slot is None
                   for i in plan._forward)
        (value,), (gx,) = plan.replay(x.data)
        assert value == pytest.approx(loss.item(), abs=1e-12)
        np.testing.assert_allclose(gx, x.grad, atol=1e-10, rtol=0.0)


def _train_step_plan(optimize):
    """The loss plan of one training step over a six-graph batch."""
    cfg = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)
    graphs = attach_labels(build_training_set(6, seed=7, max_atoms=40))
    trainer = Trainer(MACE(cfg, seed=0), graphs, plan_cache=None)
    batch = trainer._collate(list(range(len(graphs))), 0)
    with record_tape() as tape:
        loss = trainer._batch_loss(batch)
    loss.backward()
    plan = CompiledPlan(tape, outputs=(loss,), seed=loss, grad_params=True,
                        optimize=optimize, owner=trainer.model)
    return plan, trainer.model


def _readout_sum_plan(rng):
    """``g + k * r0 + k * r1 + k * r2`` with ``r_t = (x @ W_t + 1)`` flattened,
    the per-layer readout sum of a three-layer model: each middle
    ``k * r_t`` is donated the storage of its matmul *through* the
    reshape view and stays live until the final sum, while later matmuls
    take arena buffers."""
    x = Tensor(rng.standard_normal((6, 4)))
    g = Tensor(rng.standard_normal(24))
    k = Tensor(np.array([1.5]), requires_grad=True)
    weights = [Tensor(rng.standard_normal((4, 4)), requires_grad=True) for _ in range(3)]
    with record_tape() as tape, no_grad():
        total = g
        for W in weights:
            total = total + k * (x @ W + 1.0).reshape((24,))
        out = total.sum()
    return CompiledPlan(tape, outputs=(out,), inputs=(x, g)), x, g, out


def _fresh_forward_arrays(plan):
    """Forward instructions whose result lands at a new address on a
    second pass.  Arena-backed, donated and view results reuse their
    storage, so every mover is a per-replay allocation (plan outputs are
    excluded from the arena on purpose: they must survive the next
    replay)."""
    rows = []
    for _ in range(2):
        values = plan._values.copy()
        for slot, param, _, _ in plan._param_specs:
            values[slot] = param.data
        row = []
        for instr in plan._forward:
            args = instr.args
            for position, slot in instr.bindings:
                args[position] = values[slot]
            if instr.donor_slot is not None:
                result = instr.call(*args, out=values[instr.donor_slot])
            elif instr.out_buffer is not None:
                result = instr.call(*args, out=instr.out_buffer)
            else:
                result = instr.call(*args)
            values[instr.out_slot] = result
            row.append(result.__array_interface__["data"][0])
        rows.append(row)
        plan._release_activations()
    return sum(a != b for a, b in zip(*rows))


class TestArenaPlanning:
    def test_train_step_plan_is_allocation_free_and_address_stable(self):
        opt, model_opt = _train_step_plan(True)
        oneone, model_one = _train_step_plan(False)
        assert opt.n_fused_away > 0 and opt.n_donated > 0
        assert opt.n_alloc_instrs == 0
        for _ in range(3):  # steady state
            opt.replay()
            oneone.replay()
        (l_opt,), _ = opt.replay()
        (l_one,), _ = oneone.replay()
        assert abs(float(l_opt) - float(l_one)) < 1e-10
        for pa, pb in zip(model_opt.parameters(), model_one.parameters()):
            if pa.grad is not None:
                np.testing.assert_allclose(pa.grad, pb.grad, rtol=0.0, atol=1e-10)
        assert _fresh_forward_arrays(opt) <= len(opt._output_slots)

    def test_forward_only_chain_is_allocation_free(self, rng):
        plan, x, c, out = _capture(
            lambda x, c: ((x * c) * 2.0 + 1.0).sum(), rng, with_grad=False
        )
        # After fusion the whole chain is one instruction producing the
        # plan output — the only (intentionally) fresh allocation.
        assert plan.n_alloc_instrs == 0

    def test_donations_recorded_and_legal(self, rng):
        plan, x, c, _ = _capture(
            lambda x, c: ((x * c).exp() * c + x).sum(), rng, with_grad=False
        )
        assert plan.n_donated == len(plan.meta.donated)
        legal = {
            (d.index, d.donor) for d in analyze_liveness(plan).donations
        }
        for index, op, donor, out_slot in plan.meta.donated:
            assert (index, donor) in legal

    def test_outputs_survive_the_next_replay(self, rng):
        plan, x, c, _ = _capture(CHAINS["exp-tanh-mul-sum"], rng)
        (out1,), (g1,) = plan.replay(x.data)
        out1, g1 = np.copy(out1), np.copy(g1)
        (out2,), (g2,) = plan.replay(x.data * 2.0)
        # Arena recycling must never reach into returned outputs: a second
        # replay on different data leaves the first results intact.
        assert np.all(out1 != out2)
        np.testing.assert_array_equal(g1, g1.copy())

    def test_donation_through_a_view_keeps_its_storage_live(self, rng):
        plan, x, g, out = _readout_sum_plan(rng)
        views = {i.out_slot for i in plan._forward if type(i.fn).__name__ == "Reshape"}
        # k * r1 and k * r2 write into r_t (k * r0 is fused into the sum).
        assert sum(donor in views for _, _, donor, _ in plan.meta.donated) == 2
        verify_plan(plan)
        for _ in range(2):
            (replayed,), _ = plan.replay(x.data, g.data)
            assert replayed == out.data

    def test_donation_never_corrupts_saved_arrays(self, rng):
        # Mul saves its operands for backward; a donation that overwrote a
        # saved array would skew gradients on the *second* replay, after
        # the arena buffers hold the previous iteration's values.
        plan, x, c, _ = _capture(
            lambda x, c: ((x * c).tanh() * x).sum(), rng
        )
        _, (g1,) = plan.replay(x.data)
        g1 = np.copy(g1)
        _, (g2,) = plan.replay(x.data)
        np.testing.assert_array_equal(g1, g2)
        for instr in plan._forward:
            if instr.donor_slot is None:
                continue
            donor_value = plan._values[instr.donor_slot]
            if donor_value is None:
                continue
            for binstr in plan._backward or []:
                fn = binstr.call.__self__
                for saved in getattr(fn, "saved", ()) or ():
                    if isinstance(saved, np.ndarray):
                        assert not np.shares_memory(saved, donor_value)


class TestDonationAudit:
    def _plan(self, rng, optimize=True):
        x = Tensor(rng.standard_normal((8, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal((8, 5)))
        with record_tape() as tape:
            loss = ((x * c).exp() * c + x).sum()
        loss.backward()
        return CompiledPlan(tape, outputs=(loss,), seed=loss, inputs=(x,),
                            grad_params=False, optimize=optimize)

    def test_clean_optimized_plan_passes(self, rng):
        stats = verify_plan(self._plan(rng))
        assert stats["donated_instrs"] + stats["arena_buffers"] >= 0

    def test_illegal_donor_rejected(self, rng):
        # Corruptions are injected into an *unoptimized* plan, whose 1:1
        # instruction list still exposes individual alias-safe ops (the
        # optimized plan fuses the whole chain into a Sum-tailed wrapper).
        plan = self._plan(rng, optimize=False)
        instr = next(
            i for i in plan._forward
            if i.fn.supports_out and i.fn.out_alias_safe
        )
        instr.donor_slot = plan._input_specs[0][0]  # input: caller-owned, live
        with pytest.raises(PlanInvalid, match="not a legal donation pair"):
            verify_plan(plan)

    def test_non_alias_safe_donation_rejected(self, rng):
        plan = self._plan(rng, optimize=False)
        instr = next(
            i for i in plan._forward
            if i.fn.supports_out and not getattr(i.fn, "out_alias_safe", False)
        )
        instr.donor_slot = instr.tensor_slots[0]
        with pytest.raises(PlanInvalid, match="illegal donation"):
            verify_plan(plan)

    def test_buffer_shape_mismatch_rejected(self, rng):
        plan = self._plan(rng, optimize=False)
        instr = next(i for i in plan._forward if i.fn.supports_out)
        instr.out_buffer = np.empty((2, 2))
        with pytest.raises(PlanInvalid, match="arena buffer"):
            verify_plan(plan)

    def test_buffer_aliasing_constant_rejected(self, rng):
        plan = self._plan(rng, optimize=False)
        const_slot, const_value = next(
            (s, v) for s, v in enumerate(plan._values) if v is not None
        )
        instr = next(
            i for i in plan._forward
            if i.fn.supports_out
            and plan.meta.slot_shapes[i.out_slot] == const_value.shape
            and plan.meta.slot_dtypes[i.out_slot] == const_value.dtype
        )
        instr.out_buffer = const_value
        with pytest.raises(PlanInvalid, match="aliases constant slot"):
            verify_plan(plan)

    def test_overlapping_buffer_reuse_rejected(self, rng):
        x = Tensor(rng.standard_normal((8, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal((8, 5)))
        with record_tape() as tape:
            out = ((x * c) * c * c).sum()
        plan = CompiledPlan(tape, outputs=(out,), inputs=(x,), optimize=False)
        shared = np.empty((8, 5))
        plan._forward[0].out_buffer = shared
        plan._forward[1].out_buffer = shared  # reads forward[0]'s output: live
        with pytest.raises(PlanInvalid, match="still live"):
            verify_plan(plan)

    def test_reuse_of_storage_donated_through_a_view_rejected(self, rng):
        plan, _, _, _ = _readout_sum_plan(rng)
        matmuls = [i for i in plan._forward if type(i.fn).__name__ == "MatMul"]
        # The second matmul's storage ends up holding k * r1 (donated
        # through the reshape view) until the final sum; handing it to the
        # third matmul clobbers that value.
        matmuls[2].out_buffer = matmuls[1].out_buffer
        with pytest.raises(PlanInvalid, match="still live"):
            verify_plan(plan)


class TestSupportsOutRetainLint:
    def _lint(self, tmp_path, source):
        f = tmp_path / "mod.py"
        f.write_text(source)
        return lint_paths([str(f)])

    def test_retained_out_buffer_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import numpy as np\n"
            "class F:\n"
            "    supports_out = True\n"
            "    def forward(self, a, out=None):\n"
            "        result = np.exp(a, out=out)\n"
            "        self.cache = result if out is None else out\n"
            "        return result\n",
        )
        assert [f.rule for f in findings] == ["supports-out-retains-buffer"]
        assert "self.cache" in findings[0].message

    def test_saved_and_return_are_allowed(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import numpy as np\n"
            "class F:\n"
            "    supports_out = True\n"
            "    def forward(self, a, out=None):\n"
            "        result = np.exp(a, out=out)\n"
            "        self.saved = (a, result)\n"
            "        return result\n",
        )
        assert findings == []
