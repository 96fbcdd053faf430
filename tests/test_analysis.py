"""Tests for repro.analysis: the plan verifier (clean plans pass, each
corruption class is rejected with a pinpointing message), the liveness /
donation pass, tensor serial numbers, and the invariant linter rules."""

import numpy as np
import pytest

from repro.analysis import (
    ArraySpec,
    PlanInvalid,
    analyze_liveness,
    infer_output_spec,
    verify_plan,
)
from repro.analysis.lint import lint_paths
from repro.autograd import Tensor
from repro.autograd.engine import Mul
from repro.graphs import MolecularGraph, build_neighbor_list, collate
from repro.mace import MACE, MACEConfig
from repro.runtime import CompiledPlan, PlanCache, record_tape


_TP_CFG = MACEConfig(num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=1)


def _tp_graph():
    """Nineteen atoms, so the batch's atom rows and pair rows differ."""
    rng = np.random.default_rng(4)
    graph = MolecularGraph(rng.uniform(0.0, 4.0, (19, 3)), np.ones(19, dtype=np.int64))
    return build_neighbor_list(graph, cutoff=2.0)


def _training_like_plan(rng):
    """Input * const -> sum, with a compiled backward onto the input."""
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    c = Tensor(rng.standard_normal((4, 3)))
    with record_tape() as tape:
        y = x * c
        loss = y.sum()
    loss.backward()
    return CompiledPlan(
        tape, outputs=(loss,), seed=loss, inputs=(x,), grad_params=False
    )


def _forward_chain_plan(rng):
    """Forward-only chain whose intermediates die immediately."""
    x = Tensor(rng.standard_normal((8, 5)), requires_grad=True)
    c1 = Tensor(rng.standard_normal((8, 5)))
    c2 = Tensor(rng.standard_normal((8, 5)))
    with record_tape() as tape:
        out = ((x * c1) * c2).sum()
    # optimize=False: these tests count the unfused 1:1 instruction list
    # and probe per-op donation pairs (the chain would otherwise fuse).
    return CompiledPlan(tape, outputs=(out,), inputs=(x,), optimize=False)


class TestVerifierCleanPlans:
    def test_clean_plan_passes(self, rng):
        stats = verify_plan(_training_like_plan(rng))
        assert stats["forward_ops"] == 2  # Mul, Sum
        assert stats["backward_ops"] == 2
        assert stats["specs_checked"] == stats["forward_ops"]

    def test_forward_only_plan_passes(self, rng):
        stats = verify_plan(_forward_chain_plan(rng))
        assert stats["backward_ops"] == 0
        assert stats["forward_ops"] == 3

    def test_replay_matches_eager_after_verify(self, rng):
        plan = _training_like_plan(rng)
        verify_plan(plan)
        x_new = rng.standard_normal((4, 3))
        (loss,), (grad,) = plan.replay(x_new)
        assert grad is not None and grad.shape == (4, 3)


class TestVerifierCorruptions:
    """Each corruption class raises PlanInvalid naming the instruction."""

    def test_dangling_slot(self, rng):
        plan = _training_like_plan(rng)
        mul = plan._forward[0]
        later = plan._forward[1].out_slot  # defined only after Mul runs
        position, _ = mul.bindings[1]
        mul.bindings[1] = (position, later)
        mul.tensor_slots[1] = later
        with pytest.raises(PlanInvalid) as exc:
            verify_plan(plan)
        assert exc.value.location == "forward[0] Mul"
        assert "dangling slot" in str(exc.value)

    def test_wrong_dtype(self, rng):
        plan = _training_like_plan(rng)
        out = plan._forward[0].out_slot
        dtypes = list(plan.meta.slot_dtypes)
        dtypes[out] = np.dtype(np.float32)
        plan.meta.slot_dtypes = tuple(dtypes)
        with pytest.raises(PlanInvalid) as exc:
            verify_plan(plan)
        assert exc.value.location == "forward[0] Mul"
        assert "inferred output dtype" in str(exc.value)

    def test_dropped_guard(self, rng):
        plan = _training_like_plan(rng)
        plan._input_specs = []  # the input can now change without a miss
        with pytest.raises(PlanInvalid) as exc:
            verify_plan(plan)
        assert exc.value.location == "forward[0] Mul"
        assert "no replay guard" in str(exc.value)

    def test_bad_grad_shape(self, rng):
        plan = _training_like_plan(rng)
        binstr = plan._backward[-1]  # Mul's backward, targets the input
        grad_index, slot, _ = binstr.targets[0]
        binstr.targets[0] = (grad_index, slot, np.zeros((1, 1)))
        with pytest.raises(PlanInvalid) as exc:
            verify_plan(plan)
        assert exc.value.location.startswith("backward[")
        assert "Mul" in exc.value.location
        assert "bad grad shape" in str(exc.value)

    @pytest.mark.parametrize(
        "index, reader, source",
        [("pair", 5, 1), ("send", 1, 5)],
        ids=["pair-rows-not-R", "send-rows-not-h"],
    )
    def test_tp_rows_must_be_its_operands_rows(self, index, reader, source):
        """The optimized TP reads ``h`` by ``send`` (arguments 2-4) and ``R``
        (5) by position, a row per pair: binding either in place of the
        other leaves ``R`` without a row per pair, or ``send`` addressing
        the pair rows as if they were ``h``'s node rows."""
        model = MACE(_TP_CFG, seed=0)
        batch = collate([_tp_graph()])
        cache = PlanCache()
        model.predict_energy(batch, compiled=cache)
        (plan,) = cache._store.values()
        i, tp = next(
            (i, instr)
            for i, instr in enumerate(plan._forward)
            if type(instr.fn).__name__ == "_ChannelwiseTPOptimized"
        )
        slots = dict(tp.bindings)
        tp.bindings = [
            (p, slots[source] if p == reader else slot) for p, slot in tp.bindings
        ]
        tp.tensor_slots = [slot for _, slot in tp.bindings]
        if index == "pair":
            message = "R must have a row per edge or pair"
        else:
            message = f"gather structure has {batch.n_atoms} rows, x has {batch.n_edges // 2}"
        with pytest.raises(PlanInvalid, match=message) as exc:
            verify_plan(plan)
        assert exc.value.location == f"forward[{i}] _ChannelwiseTPOptimized"

    def test_cache_rejects_corrupt_plan_on_put(self, rng):
        plan = _training_like_plan(rng)
        plan._input_specs = []
        cache = PlanCache()
        with pytest.raises(PlanInvalid):
            cache.put("key", plan)
        assert cache.get("key") is None

    def test_cache_verify_off_accepts(self, rng):
        plan = _training_like_plan(rng)
        plan._input_specs = []
        cache = PlanCache(verify=False)
        cache.put("key", plan)
        assert cache.get("key") is plan
        assert cache.stats()["verified"] == 0


class TestSpecInference:
    def test_registry_covers_mul(self):
        a = ArraySpec((4, 3), np.dtype(np.float64))
        b = ArraySpec((1, 3), np.dtype(np.float64))
        out = infer_output_spec(Mul(), [a, b], {})
        assert out.shape == (4, 3)
        assert out.dtype == np.float64

    def test_spec_equality(self):
        a = ArraySpec((2,), np.dtype(np.float64))
        assert a == ArraySpec((2,), np.dtype(np.float64))
        assert a != ArraySpec((3,), np.dtype(np.float64))


class TestLiveness:
    def test_donation_pair_on_chain(self, rng):
        report = analyze_liveness(_forward_chain_plan(rng))
        assert report.donations, "dead intermediate should be donatable"
        d = report.donations[0]
        assert d.shape == (8, 5)
        assert "donation" in report.format() or "legal donation" in report.format()

    def test_saved_inputs_block_donation(self, rng):
        # Mul's backward re-reads its operands, so with a compiled
        # backward the intermediate stays live across the forward pass.
        report = analyze_liveness(_training_like_plan(rng))
        assert report.n_backward == 2
        assert not report.alias_violations

    def test_peak_bounded_by_total(self, rng):
        plan = _forward_chain_plan(rng)
        report = analyze_liveness(plan)
        total_node_bytes = sum(
            iv.nbytes for iv in report.intervals if iv.kind == "node"
        )
        assert 0 < report.peak_bytes <= total_node_bytes


class TestSerials:
    def test_monotonic_and_unique(self, rng):
        a = Tensor(rng.standard_normal(3))
        b = Tensor(rng.standard_normal(3))
        assert b.serial > a.serial
        c = a + b
        assert c.serial > b.serial

    def test_serial_survives_data_swap(self, rng):
        a = Tensor(rng.standard_normal(3))
        serial = a.serial
        a.data = rng.standard_normal(3)
        assert a.serial == serial


# -- linter rules ---------------------------------------------------------------


def _lint(tmp_path, relpath, source):
    f = tmp_path / relpath
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(source)
    return lint_paths([str(f)])


class TestLintRules:
    def test_hot_loop_scatter_flags_add_at(self, tmp_path):
        findings = _lint(
            tmp_path,
            "kernels/bad.py",
            "import numpy as np\n"
            "def pool(out, idx, vals):\n"
            "    np.add.at(out, idx, vals)\n",
        )
        assert [f.rule for f in findings] == ["hot-loop-scatter"]
        assert findings[0].lineno == 3

    def test_hot_loop_scatter_respects_pragma(self, tmp_path):
        findings = _lint(
            tmp_path,
            "kernels/ok.py",
            "import numpy as np\n"
            "def pool(out, idx, vals):\n"
            "    np.add.at(out, idx, vals)  # lint: allow-hot-loop-scatter\n",
        )
        assert findings == []

    def test_hot_loop_scatter_ignores_cold_paths(self, tmp_path):
        findings = _lint(
            tmp_path,
            "training/fine.py",
            "import numpy as np\n"
            "def pool(out, idx, vals):\n"
            "    np.add.at(out, idx, vals)\n",
        )
        assert findings == []

    def test_hot_loop_scatter_flags_data_sized_loop(self, tmp_path):
        findings = _lint(
            tmp_path,
            "equivariant/bad.py",
            "class K:\n"
            "    def forward(self, x):\n"
            "        for i in range(x.shape[0]):\n"
            "            pass\n",
        )
        assert [f.rule for f in findings] == ["hot-loop-scatter"]

    def test_hot_loop_scatter_allows_tile_loop_over_module_constant(self, tmp_path):
        findings = _lint(
            tmp_path,
            "kernels/ok.py",
            "_TILE = 64\n"
            "class K:\n"
            "    def forward(self, x):\n"
            "        E = x.shape[0]\n"
            "        for s in range(0, E, _TILE):\n"
            "            pass\n"
            "        for s in range(0, x.shape[0], _TILE):\n"
            "            pass\n"
            "    def backward(self, g):\n"
            "        for l in range(3):\n"
            "            pass\n",
        )
        assert findings == []

    @pytest.mark.parametrize(
        "body",
        [
            "E = x.shape[0]\n        for i in range(E):",
            "E, K = x.shape[0], 4\n        n = E - 1\n        for i in range(1, n):",
            "E = x.size\n        for s in range(0, E, 64):",
            "E = x.shape[0]\n        TILE = 64\n        for s in range(0, E, TILE):",
        ],
        ids=["local-bound", "derived-local", "literal-step", "local-step"],
    )
    def test_hot_loop_scatter_flags_loop_over_shape_local(self, tmp_path, body):
        findings = _lint(
            tmp_path,
            "kernels/bad.py",
            "class K:\n"
            "    def backward(self, x):\n"
            f"        {body}\n"
            "            pass\n",
        )
        assert [f.rule for f in findings] == ["hot-loop-scatter"]

    def test_per_call_row_index_flags_sorts_in_forward_and_backward(self, tmp_path):
        findings = _lint(
            tmp_path,
            "mace/bad.py",
            "from repro.autograd.ops import scatter_matrix, scatter_rows\n"
            "class Pool:\n"
            "    def forward(self, x, seg, n):\n"
            "        return scatter_matrix(seg, n) @ x\n"
            "    def backward(self, g):\n"
            "        return (scatter_rows(g, self.seg, self.n),)\n",
        )
        assert [(f.rule, f.lineno) for f in findings] == [
            ("per-call-row-index", 4),
            ("per-call-row-index", 6),
        ]

    def test_per_call_row_index_allows_bound_rows_and_setup(self, tmp_path):
        findings = _lint(
            tmp_path,
            "mace/ok.py",
            "from repro.autograd.ops import RowIndex, row_index, scatter_rows\n"
            "TABLE = row_index([0, 1, 1], 2)  # built once, at setup\n"
            "class Pool:\n"
            "    def forward(self, x, index, order, indptr):\n"
            "        self.rows = RowIndex(index, order, indptr)\n"
            "        return scatter_rows(x, self.rows)\n"
            "    def backward(self, g):\n"
            "        return (g[self.rows.index], None, None, None)\n",
        )
        assert findings == []

    def test_forward_mutates_input(self, tmp_path):
        findings = _lint(
            tmp_path,
            "mod.py",
            "class F:\n"
            "    def forward(self, a):\n"
            "        a[0] = 1.0\n"
            "        return a\n",
        )
        assert [f.rule for f in findings] == ["forward-mutates-input"]
        assert "writes into input array 'a'" in findings[0].message

    def test_forward_rebinding_is_not_mutation(self, tmp_path):
        findings = _lint(
            tmp_path,
            "mod.py",
            "class F:\n"
            "    def forward(self, a):\n"
            "        a = a + 1.0\n"
            "        a[0] = 2.0\n"
            "        return a\n",
        )
        assert findings == []

    def test_forward_out_kwarg_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "mod.py",
            "import numpy as np\n"
            "class F:\n"
            "    def forward(self, a, b):\n"
            "        return np.multiply(a, b, out=a)\n",
        )
        assert [f.rule for f in findings] == ["forward-mutates-input"]

    def test_gradcheck_coverage(self, tmp_path):
        findings = _lint(
            tmp_path,
            "ops.py",
            "class Function:\n"
            "    pass\n"
            "class MyOp(Function):\n"
            "    def forward(self, a):\n"
            "        return a\n"
            "def my_op(x):\n"
            "    return MyOp.apply(x)\n",
        )
        assert [f.rule for f in findings] == ["gradcheck-coverage"]
        assert "MyOp" in findings[0].message

    def test_atomic_write_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "io.py",
            "import json\n"
            "def save(path, obj):\n"
            "    with open(path, 'w') as f:\n"
            "        json.dump(obj, f)\n",
        )
        assert {f.rule for f in findings} == {"atomic-write"}

    def test_atomic_write_satisfied_by_replace(self, tmp_path):
        findings = _lint(
            tmp_path,
            "io.py",
            "import json, os\n"
            "def save(path, obj):\n"
            "    with open(str(path) + '.tmp', 'w') as f:\n"
            "        json.dump(obj, f)\n"
            "    os.replace(str(path) + '.tmp', path)\n",
        )
        assert findings == []

    def test_id_keyed_dict(self, tmp_path):
        findings = _lint(tmp_path, "mod.py", "def key(x, d):\n    d[id(x)] = 1\n")
        assert [f.rule for f in findings] == ["id-keyed-dict"]

    def test_id_keyed_dict_pragma(self, tmp_path):
        findings = _lint(
            tmp_path,
            "mod.py",
            "def key(x, d):\n    d[id(x)] = 1  # lint: allow-id-keyed-dict\n",
        )
        assert findings == []

    def test_repo_lints_clean(self):
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        assert lint_paths([str(src)]) == []


class TestParallelModuleStateRule:
    def test_flags_module_level_mutables(self, tmp_path):
        findings = _lint(
            tmp_path,
            "parallel/bad.py",
            "import threading\n"
            "CACHE = {}\n"
            "PENDING = []\n"
            "LOCK = threading.Lock()\n"
            "def fine():\n"
            "    local_state = {}\n"
            "    return local_state\n",
        )
        assert [f.rule for f in findings] == ["parallel-module-state"] * 3
        assert [f.lineno for f in findings] == [2, 3, 4]

    def test_allows_constants_classes_and_all(self, tmp_path):
        findings = _lint(
            tmp_path,
            "parallel/good.py",
            "__all__ = ['Thing']\n"
            "DEFAULT_BYTES = 32 << 20\n"
            "NAMES = ('a', 'b')\n"
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self.queue = []\n",
        )
        assert findings == []

    def test_ignores_other_packages(self, tmp_path):
        findings = _lint(
            tmp_path,
            "serving/state.py",
            "REGISTRY = {}\n",
        )
        assert findings == []

    def test_flags_module_level_slabs_and_pools_in_runtime(self, tmp_path):
        findings = _lint(
            tmp_path,
            "runtime/bad.py",
            "import threading\n"
            "import numpy as np\n"
            "from repro.runtime.plan import Arena\n"
            "SLAB = np.empty(1 << 20, dtype=np.uint8)\n"
            "SCRATCH = threading.local()\n"
            "ARENA = Arena()\n"
            "_FUSABLE = frozenset({'Add'})\n",
        )
        assert [f.rule for f in findings] == ["parallel-module-state"] * 3
        assert [f.lineno for f in findings] == [4, 5, 6]
        assert all("repro.runtime" in f.message for f in findings)

    def test_pragma_allows(self, tmp_path):
        findings = _lint(
            tmp_path,
            "parallel/annotated.py",
            "TABLE = {}  # lint: allow-parallel-module-state\n",
        )
        assert findings == []


class TestUnboundedWaitRule:
    def test_flags_waits_without_timeout(self, tmp_path):
        findings = _lint(
            tmp_path,
            "data/loader.py",
            "def drain(q, conn, proc, done, lookup):\n"
            "    item = q.get()\n"
            "    msg = conn.recv()\n"
            "    proc.join(timeout=None)\n"
            "    done.wait()\n"
            "    q.get(timeout=0.05)\n"
            "    proc.join(5.0)\n"
            "    conn.poll(0.05)\n"
            "    return lookup.get('key'), ', '.join(['a'])\n",
        )
        assert [f.rule for f in findings] == ["unbounded-wait"] * 4
        assert [f.lineno for f in findings] == [2, 3, 4, 5]

    def test_allow_comment_and_other_packages(self, tmp_path):
        assert _lint(
            tmp_path,
            "parallel/worker_loop.py",
            "def loop(tasks):\n"
            "    # Worker side: idle until the driver sends.\n"
            "    return tasks.get()  # lint: allow-unbounded-wait\n",
        ) == []
        assert _lint(tmp_path, "serving/engine.py", "def f(q):\n    return q.get()\n") == []


class TestEpochPlanPayloadRule:
    def test_flags_payload_reads_in_distribution(self, tmp_path):
        findings = _lint(
            tmp_path,
            "distribution/bad.py",
            "def balance(ds):\n"
            "    total = 0\n"
            "    for i in range(len(ds)):\n"
            "        g = ds.load(i)\n"
            "        total += g.positions.shape[0]\n"
            "    return total\n",
        )
        assert [f.rule for f in findings] == ["epoch-plan-payload-read"] * 2
        assert [f.lineno for f in findings] == [4, 5]

    def test_flags_plan_functions_anywhere(self, tmp_path):
        findings = _lint(
            tmp_path,
            "training/helpers.py",
            "def plan_epoch(graphs):\n"
            "    return [g.edge_index.shape[1] for g in graphs]\n"
            "def simulate(graphs):\n"
            "    return [g.edge_index.shape[1] for g in graphs]\n",
        )
        assert [f.rule for f in findings] == ["epoch-plan-payload-read"]
        assert findings[0].lineno == 2  # non-plan functions untouched

    def test_allows_size_index_and_metadata_io(self, tmp_path):
        findings = _lint(
            tmp_path,
            "distribution/good.py",
            "import numpy as np\n"
            "import json\n"
            "def balance(index, path):\n"
            "    meta = json.load(open(path))\n"
            "    sizes = np.load(path)\n"
            "    return index.n_atoms.sum() + index.shard_id.max()\n",
        )
        assert findings == []

    def test_pragma_allows(self, tmp_path):
        findings = _lint(
            tmp_path,
            "distribution/annotated.py",
            "def balance(ds):\n"
            "    return ds.load(0)  # lint: allow-epoch-plan-payload-read\n",
        )
        assert findings == []
