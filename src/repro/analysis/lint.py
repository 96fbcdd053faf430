"""Repo-specific invariant linter (AST-based).

The codebase enforces several conventions that ordinary linters cannot
see — performance invariants from the paper (no ``np.add.at`` or
per-element Python loops in hot kernel paths), autograd contracts
(``Function.forward`` must never mutate its input arrays; every
``Function`` needs a gradcheck test), and robustness rules
(crash-atomic checkpoint writes, no ``id()``-keyed bookkeeping now that
tensors carry serial numbers).  Each is a :class:`Rule` below.

Run as ``python -m repro.analysis.lint src/`` (exit status 1 on
findings) — wired into ``scripts/check.sh`` and CI.  Suppress a finding
by appending ``# lint: allow-<rule-name>`` to the offending line; use
sparingly and leave a reason nearby.

Adding a rule: subclass :class:`Rule`, set ``name``/``explanation``,
implement ``visit(tree, ctx)`` yielding ``(lineno, message)`` pairs,
and append an instance to :data:`RULES`.  ``ctx`` carries the file
path, its source lines and the repo-wide index of Function subclasses
and test identifiers (built once per run).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

__all__ = ["Finding", "Rule", "RULES", "lint_paths", "main"]

# Directories whose forward/backward code is performance-critical: the
# kernel invariants (scatter-free, loop-free inner code) apply here.
HOT_PATHS = ("kernels", "equivariant")

# Test-side entry points that mark a file as containing gradient checks.
GRADCHECK_CALLS = {"check_gradients", "numerical_gradient"}


@dataclass
class Finding:
    path: Path
    lineno: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


@dataclass
class FileContext:
    path: Path
    lines: List[str]
    repo: "RepoIndex"

    def allowed(self, lineno: int, rule: str) -> bool:
        if 1 <= lineno <= len(self.lines):
            return f"lint: allow-{rule}" in self.lines[lineno - 1]
        return False

    def in_hot_path(self) -> bool:
        return any(part in HOT_PATHS for part in self.path.parts)


@dataclass
class RepoIndex:
    """Repo-wide cross-reference data shared by all rules."""

    # Function subclass name -> (path, lineno, candidate public names)
    functions: Dict[str, Tuple[Path, int, Set[str]]] = field(default_factory=dict)
    # every identifier appearing in a test file that runs gradchecks
    gradcheck_identifiers: Set[str] = field(default_factory=set)


class Rule:
    name = "abstract"
    explanation = ""

    def visit(self, tree: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        raise NotImplementedError


def _is_np_attr(node: ast.AST, *path: str) -> bool:
    """Whether ``node`` is the attribute chain ``np.<path>``/``numpy.<path>``."""
    for name in reversed(path):
        if not (isinstance(node, ast.Attribute) and node.attr == name):
            return False
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _is_data_sized(node: ast.AST, sized: Set[str]) -> bool:
    """Whether ``node`` reads a ``.shape``/``.size`` or a name in ``sized``."""
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr in ("shape", "size"))
        or (isinstance(sub, ast.Name) and sub.id in sized)
        for sub in ast.walk(node)
    )


def _data_sized_locals(func: ast.AST) -> Set[str]:
    """Names ``func`` assigns from array extents, directly or via each other
    (``E = x.shape[0]`` and ``n = E - 1`` both count)."""
    assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
    sized: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in assigns:
            if not _is_data_sized(node.value, sized):
                continue
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id not in sized:
                        sized.add(sub.id)
                        changed = True
    return sized


def _module_constants(tree: ast.AST) -> Set[str]:
    """ALL_CAPS names (leading underscores allowed) bound at module level."""
    return {
        target.id
        for node in getattr(tree, "body", ())
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
    }


class HotLoopScatterRule(Rule):
    name = "hot-loop-scatter"
    explanation = (
        "kernels/ and equivariant/ are the measured hot paths: no np.add.at "
        "(orders of magnitude slower than the CSR segment sum of "
        "repro.autograd.ops.scatter_rows / scatter_matrix) and "
        "no per-element Python loops inside forward/backward.  A loop bound "
        "counts as data-sized when it reads .shape/.size or a local assigned "
        "from one.  Allowed: range(start, stop, STEP) with STEP a module-level "
        "ALL_CAPS constant — an O(E/T) loop over tiles of T elements"
    )

    def visit(self, tree, ctx):
        if not ctx.in_hot_path():
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_np_attr(node.func, "add", "at"):
                yield node.lineno, (
                    "np.add.at in a hot path — use the segment-sum primitive "
                    "repro.autograd.ops.scatter_rows / scatter_matrix instead"
                )
        constants = _module_constants(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name not in ("forward", "backward"):
                continue
            sized = _data_sized_locals(func)
            for node in ast.walk(func):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                it = node.iter
                if not (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id == "range"
                ):
                    continue
                step = it.args[2] if len(it.args) == 3 else None
                if isinstance(step, ast.Name) and step.id in constants:
                    continue  # tile loop: one iteration per STEP elements
                if any(_is_data_sized(arg, sized) for arg in it.args):
                    yield node.lineno, (
                        f"data-sized Python loop in {func.name}() of a hot-path "
                        "kernel — vectorize over the array axis"
                    )


class PerCallRowIndexRule(Rule):
    name = "per-call-row-index"
    explanation = (
        "a row index's CSR structure is a property of the graph: it is sorted "
        "once where the index is bound (repro.autograd.ops.row_index, once per "
        "batch in repro.graphs.EdgeTopology) and reaches a Function as replay "
        "inputs, so Function.forward/backward never call scatter_matrix or "
        "row_index, and call scatter_rows with a bound RowIndex, never with a "
        "raw index and its row count"
    )

    def visit(self, tree, ctx):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not (
                    isinstance(func, ast.FunctionDef)
                    and func.name in ("forward", "backward")
                ):
                    continue
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = node.func
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                    raw = name == "scatter_rows" and (
                        len(node.args) > 2
                        or any(k.arg == "n_rows" for k in node.keywords)
                    )
                    if name in ("scatter_matrix", "row_index") or raw:
                        yield node.lineno, (
                            f"{name} by a raw index in {cls.name}.{func.name}() "
                            "sorts the index on every call — take its bound "
                            "RowIndex (order, indptr) as inputs"
                        )


class ForwardMutatesInputRule(Rule):
    name = "forward-mutates-input"
    explanation = (
        "Function.forward receives the caller's arrays by reference; mutating "
        "one corrupts the tape (and any compiled plan's folded constants)"
    )

    _MUTATORS = {"fill", "sort", "resize", "put", "partition", "setfield"}

    def visit(self, tree, ctx):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef) or func.name != "forward":
                    continue
                yield from self._check_forward(func)

    def _check_forward(self, func: ast.FunctionDef):
        params: Set[str] = {a.arg for a in func.args.args[1:]}  # skip self
        params.update(a.arg for a in func.args.kwonlyargs)
        if func.args.vararg is not None:
            params.add(func.args.vararg.arg)
        # The ``out=`` parameter of the supports_out protocol is the one
        # array forward() is *meant* to write into — the arena planner
        # owns it and guarantees it never aliases a live caller array
        # (SupportsOutRetainRule polices the other half of the contract).
        params.discard("out")

        def root_name(node: ast.AST):
            while isinstance(node, (ast.Subscript, ast.Attribute)):
                node = node.value
            return node.id if isinstance(node, ast.Name) else None

        # Walk statements in source order; a plain rebinding of a
        # parameter name makes later writes to that name local, not a
        # mutation of the caller's array.
        live = set(params)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in live:
                        live.discard(target.id)
                    elif isinstance(target, ast.Subscript):
                        name = root_name(target)
                        if name in live:
                            yield target.lineno, (
                                f"forward() writes into input array {name!r} "
                                "in place"
                            )
            elif isinstance(node, ast.AugAssign):
                name = root_name(node.target)
                if name in live:
                    yield node.lineno, (
                        f"forward() mutates input array {name!r} with an "
                        "augmented assignment"
                    )
            elif isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in self._MUTATORS
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in live
                ):
                    yield node.lineno, (
                        f"forward() calls {fn.value.id}.{fn.attr}(), mutating "
                        "an input array"
                    )
                for kw in node.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Name) and kw.value.id in live:
                        yield node.lineno, (
                            f"forward() uses out={kw.value.id}, writing into "
                            "an input array"
                        )


class GradcheckCoverageRule(Rule):
    name = "gradcheck-coverage"
    explanation = (
        "every Function carries a hand-written backward; each needs a "
        "numerical gradient check in tests/ referencing it (directly or via "
        "its public wrapper)"
    )

    def visit(self, tree, ctx):
        for name, (path, lineno, candidates) in ctx.repo.functions.items():
            if path != ctx.path:
                continue
            if candidates & ctx.repo.gradcheck_identifiers:
                continue
            yield lineno, (
                f"Function {name} has no gradcheck test (none of "
                f"{sorted(candidates)} appears in a test file calling "
                f"check_gradients/numerical_gradient)"
            )


class AtomicWriteRule(Rule):
    name = "atomic-write"
    explanation = (
        "checkpoint/artifact writers must stage to a temp file and publish "
        "with os.replace so a crash never truncates the previous good file"
    )

    _WRITE_MODES = {"w", "wb", "w+", "wb+", "w+b"}

    def _is_file_write(self, node: ast.Call) -> bool:
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "open":
            for arg in node.args[1:2]:
                if isinstance(arg, ast.Constant) and arg.value in self._WRITE_MODES:
                    return True
            for kw in node.keywords:
                if (
                    kw.arg == "mode"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in self._WRITE_MODES
                ):
                    return True
            return False
        if _is_np_attr(fn, "save") or _is_np_attr(fn, "savez") or _is_np_attr(
            fn, "savez_compressed"
        ):
            return True
        if isinstance(fn, ast.Attribute) and fn.attr == "dump":
            root = fn.value
            return isinstance(root, ast.Name) and root.id in ("json", "pickle")
        return False

    def visit(self, tree, ctx):
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and self._is_file_write(node)
            ]
            if not writes:
                continue
            has_replace = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
                for node in ast.walk(func)
            )
            if not has_replace:
                for node in writes:
                    yield node.lineno, (
                        f"{func.name}() writes a file without os.replace — "
                        "stage to a temp file and publish atomically"
                    )


class IdKeyedDictRule(Rule):
    name = "id-keyed-dict"
    explanation = (
        "id() keys can be recycled after garbage collection; tensors carry "
        "monotonic .serial numbers — key on those (or pin the owner and "
        "annotate the line)"
    )

    def visit(self, tree, ctx):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield node.lineno, (
                    "id() used as an identity key — use Tensor.serial, or pin "
                    "the object for the key's lifetime and allow-list this line"
                )


class SupportsOutRetainRule(Rule):
    name = "supports-out-retains-buffer"
    explanation = (
        "a Function declaring supports_out hands its output buffer back to "
        "the arena planner, which may alias or reassign it once the value "
        "dies; forward() may keep a reference to out only in the return "
        "value and self.saved (which every replay clears)"
    )

    @staticmethod
    def _declares_supports_out(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            targets = ()
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = (stmt.target,), stmt.value
            if (
                any(
                    isinstance(t, ast.Name) and t.id == "supports_out"
                    for t in targets
                )
                and isinstance(value, ast.Constant)
                and value.value is True
            ):
                return True
        return False

    def visit(self, tree, ctx):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not self._declares_supports_out(cls):
                continue
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and func.name == "forward":
                    yield from self._check_forward(func)

    def _check_forward(self, func: ast.FunctionDef):
        for node in ast.walk(func):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = target
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    if (
                        isinstance(root, ast.Attribute)
                        and isinstance(root.value, ast.Name)
                        and root.value.id == "self"
                        and root.attr != "saved"
                    ):
                        if any(
                            isinstance(sub, ast.Name) and sub.id == "out"
                            for sub in ast.walk(node.value)
                        ):
                            yield node.lineno, (
                                f"forward() of a supports_out Function stores the "
                                f"out= buffer on self.{root.attr} — retained "
                                "references outlive the value and alias the arena"
                            )
                    root = root.value


class ParallelModuleStateRule(Rule):
    name = "parallel-module-state"
    explanation = (
        "repro.parallel and repro.runtime must stay fork-safe: module-level "
        "mutable state (containers, locks, queues, thread-locals, shared "
        "memory, slabs and pools) is snapshotted into forked workers at "
        "arbitrary moments and silently diverges from the driver's copy, "
        "and a module-global slab outlives every cache that used it; hang "
        "all state off executor/worker/cache instances"
    )

    _PACKAGES = ("parallel", "runtime")

    # Constructors whose module-level result is mutable shared state.
    _MUTABLE_CALLS = {
        "dict",
        "list",
        "set",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "Queue",
        "LifoQueue",
        "PriorityQueue",
        "SimpleQueue",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "SharedMemory",
        "ShmSlab",
        "LocalSlab",
        "local",
        "Arena",
        "empty",
        "zeros",
        "ones",
        "full",
        "colored_empty",
    }

    @staticmethod
    def _top_level(tree: ast.Module):
        """Module-body statements, descending into top-level if/try arms."""
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.If, ast.Try)):
                stack.extend(node.body)
                stack.extend(node.orelse)
                stack.extend(getattr(node, "finalbody", []))
                for handler in getattr(node, "handlers", []):
                    stack.extend(handler.body)
            else:
                yield node

    def _is_mutable(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(value, ast.List):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return name in self._MUTABLE_CALLS
        return False

    def visit(self, tree, ctx):
        package = next((p for p in self._PACKAGES if p in ctx.path.parts), None)
        if package is None:
            return
        for node in self._top_level(tree):
            targets: Tuple[ast.AST, ...] = ()
            value = None
            if isinstance(node, ast.Assign):
                targets, value = tuple(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = (node.target,), node.value
            if value is None or not self._is_mutable(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                continue  # export list: written once at import, never mutated
            label = ", ".join(names) or "<target>"
            yield node.lineno, (
                f"module-level mutable state '{label}' in repro.{package} — "
                "forked workers get a divergent copy and it outlives its "
                "users; move it onto the executor, WorkerContext or cache "
                "instance"
            )


class EpochPlanPayloadRule(Rule):
    name = "epoch-plan-payload-read"
    explanation = (
        "epoch planning must consume the size index only (n_atoms, n_edges, "
        "system_id, shard_ids): touching structure payloads — positions, "
        "edge arrays, forces, or ShardedDataset.load — makes planning cost "
        "scale with payload bytes and defeats out-of-core streaming"
    )

    # Attribute reads that materialize structure payload data.
    _PAYLOAD_ATTRS = {
        "positions",
        "edge_index",
        "edge_shift",
        "forces",
        "cell",
        "cells",
    }
    # Method calls that read shard payloads / per-structure geometry.
    _PAYLOAD_CALLS = {"load", "displacement_vectors"}
    # ``.load`` on these roots is metadata I/O (np.load of the size
    # index, json.load of index metadata), not a payload read.
    _IO_MODULES = {"np", "numpy", "json", "pickle"}

    def visit(self, tree, ctx):
        in_distribution = "distribution" in ctx.path.parts
        seen: Set[Tuple[int, str]] = set()
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Every function in repro/distribution plans from sizes; any
            # function named plan_* elsewhere claims the same contract.
            if not (in_distribution or func.name.startswith("plan_")):
                continue
            for finding in self._check(func):
                if finding not in seen:
                    seen.add(finding)
                    yield finding

    def _check(self, func):
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                fn = node.func
                if fn.attr in self._PAYLOAD_CALLS and not (
                    isinstance(fn.value, ast.Name) and fn.value.id in self._IO_MODULES
                ):
                    yield node.lineno, (
                        f"epoch-planning code calls .{fn.attr}() — a structure "
                        "payload read; plan from the size index instead"
                    )
            elif isinstance(node, ast.Attribute) and node.attr in self._PAYLOAD_ATTRS:
                yield node.lineno, (
                    f"epoch-planning code reads .{node.attr} — a structure "
                    "payload field; plan from the size index instead"
                )


class UnboundedWaitRule(Rule):
    name = "unbounded-wait"
    explanation = (
        "a driver blocked with no timeout hangs for good once its worker "
        "dies: in repro.parallel, repro.data and the trainer every .get(), "
        ".recv(), .join() and .wait() takes a timeout or follows a poll; a "
        "worker-side idle loop carries an allow comment with its reason"
    )

    def visit(self, tree, ctx):
        if not {"parallel", "data"} & set(ctx.path.parts) and ctx.path.name != "trainer.py":
            return
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            timeout = next((k.value for k in node.keywords if k.arg == "timeout"), None)
            if timeout is None and node.args:
                timeout = node.args[-1]  # Queue.get(block, timeout), join(timeout)
            if isinstance(timeout, ast.Constant) and timeout.value is None:
                timeout = None
            waits = attr in ("get", "join", "wait") and timeout is None
            if waits or attr in ("recv", "recv_bytes"):  # a Connection read takes no timeout
                yield node.lineno, f".{attr}() has no timeout: poll first or pass timeout="


RULES: List[Rule] = [
    HotLoopScatterRule(),
    PerCallRowIndexRule(),
    ForwardMutatesInputRule(),
    GradcheckCoverageRule(),
    AtomicWriteRule(),
    IdKeyedDictRule(),
    SupportsOutRetainRule(),
    ParallelModuleStateRule(),
    EpochPlanPayloadRule(),
    UnboundedWaitRule(),
]


def _function_candidates(tree: ast.AST) -> Dict[str, Set[str]]:
    """Map each Function subclass in a module to its referencing names.

    A subclass's candidates are its own name plus every module-level
    function or class whose body mentions ``<Subclass>.apply`` — the
    public wrappers a gradcheck test will actually call (``silu`` for
    ``SiLU``, ``Tensor`` for the operator-dispatched primitives,
    ``EquivariantLinear`` for ``_ChannelMix``).
    """
    subclasses = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            (isinstance(base, ast.Name) and base.id == "Function")
            or (isinstance(base, ast.Attribute) and base.attr == "Function")
            for base in node.bases
        )
    }
    candidates = {name: {name} for name in subclasses}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "apply"
                and isinstance(sub.value, ast.Name)
                and sub.value.id in subclasses
            ):
                candidates[sub.value.id].add(node.name)
    return candidates


def _build_repo_index(src_files: List[Path], test_files: List[Path]) -> RepoIndex:
    index = RepoIndex()
    for path in src_files:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        per_class = _function_candidates(tree)
        linenos = {
            node.name: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        for name, cands in per_class.items():
            index.functions[name] = (path, linenos.get(name, 1), cands)
    for path in test_files:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        mentions = {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        if mentions & GRADCHECK_CALLS:
            index.gradcheck_identifiers.update(mentions)
    return index


def _collect(paths: Iterable[str]) -> Tuple[List[Path], List[Path]]:
    src_files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            src_files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            src_files.append(p)
    # Test files are located relative to the repo root (the parent that
    # contains tests/) so gradcheck coverage works from any invocation dir.
    test_files: List[Path] = []
    seen: Set[Path] = set()
    for candidate in src_files:
        for ancestor in candidate.resolve().parents:
            tests = ancestor / "tests"
            if tests.is_dir() and tests not in seen:
                seen.add(tests)
                test_files.extend(sorted(tests.rglob("*.py")))
    return src_files, test_files


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every ``*.py`` under ``paths``; returns all findings."""
    src_files, test_files = _collect(paths)
    repo = _build_repo_index(src_files, test_files)
    findings: List[Finding] = []
    for path in src_files:
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(Finding(path, exc.lineno or 1, "syntax", str(exc)))
            continue
        ctx = FileContext(path=path, lines=source.splitlines(), repo=repo)
        for rule in RULES:
            for lineno, message in rule.visit(tree, ctx) or ():
                if not ctx.allowed(lineno, rule.name):
                    findings.append(Finding(path, lineno, rule.name, message))
    findings.sort(key=lambda f: (str(f.path), f.lineno))
    return findings


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.analysis.lint <path> [path ...]", file=sys.stderr)
        return 2
    findings = lint_paths(argv)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
