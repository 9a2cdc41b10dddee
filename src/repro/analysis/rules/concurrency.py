"""R002: concurrency -- module-level mutable state mutates under a lock.

The process-wide caches (`_default_engine` in ``core/sweep.py``, the memo
dicts in ``npb/cg.py`` and ``cachesim/trace.py``, the catalog's memoised
getters) are shared by every thread that drives a sweep -- above all
the service's job-manager workers and HTTP handler threads.  Every write
to module-level mutable state from function bodies must therefore sit
inside a ``with <lock>:`` block; module import time is exempt
(single-threaded by construction).

The rule also polices the read-only handout convention: objects returned
by the memoising accessors (``build_trace``, ``make_matrix``) are shared
across threads and must never be mutated in place -- flagged are
subscript/augmented assignment into them and ``.setflags(write=True)``
re-arming of a cached array.

This rule sees one file at a time and only asks *whether* a lock is
held.  The whole-program rules built on the lock model pick up where it
stops: R009 (``lockorder``) checks that lock *pairs* are acquired in a
consistent order across the call graph, and R010 (``blocking``) checks
that nothing blocking runs while a lock is held.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..core import Finding, Rule, SourceModule
from ..registry import register
from ._astutil import terminal_name

__all__ = ["ConcurrencyRule"]

_MUTATING_METHODS = {
    "append", "add", "clear", "update", "setdefault", "pop", "popitem",
    "extend", "remove", "discard", "insert", "sort", "reverse",
}

#: Accessors whose return values are shared, cached, read-only objects.
READONLY_ACCESSORS = frozenset({"build_trace", "make_matrix"})

_MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "deque",
                      "OrderedDict", "Counter"}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        return name in _MUTABLE_FACTORIES
    # The lazy-singleton pattern: `_engine = None`, rebound later.
    return isinstance(node, ast.Constant) and node.value is None


def _is_lock_guard(item: ast.withitem) -> bool:
    name = terminal_name(item.context_expr)
    return name is not None and "lock" in name.lower()


def _root_name(node: ast.AST) -> str | None:
    """Base Name of a subscript/attribute chain (``x`` for ``x[k].y``)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class ConcurrencyRule(Rule):
    code = "R002"
    name = "concurrency"
    description = (
        "module-level mutable state written outside a `with <lock>:` block, "
        "or in-place mutation of cached read-only objects"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        mutable_globals: set[str] = set()
        for stmt in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if _is_mutable_literal(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        mutable_globals.add(target.id)

        yield from self._walk_for_functions(module, module.tree, mutable_globals,
                                            shadowed=frozenset())

    # ------------------------------------------------------------------

    def _walk_for_functions(
        self,
        module: SourceModule,
        node: ast.AST,
        mutable_globals: set[str],
        shadowed: frozenset[str],
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, child, mutable_globals,
                                                shadowed)
            else:
                yield from self._walk_for_functions(module, child,
                                                    mutable_globals, shadowed)

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        mutable_globals: set[str],
        outer_shadowed: frozenset[str],
    ) -> Iterator[Finding]:
        declared_global: set[str] = set()
        locals_: set[str] = {a.arg for a in (
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs,
            *([func.args.vararg] if func.args.vararg else []),
            *([func.args.kwarg] if func.args.kwarg else []),
        )}
        readonly_locals: set[str] = set()

        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not func:
                continue
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                   ast.For, ast.withitem, ast.comprehension)):
                for name in _bound_names(node):
                    locals_.add(name)
        locals_ -= declared_global

        # Locals holding results of read-only accessors (incl. unpacking).
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = terminal_name(node.value.func)
                if callee in READONLY_ACCESSORS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            readonly_locals.add(target.id)
                        elif isinstance(target, (ast.Tuple, ast.List)):
                            for elt in target.elts:
                                if isinstance(elt, ast.Name):
                                    readonly_locals.add(elt.id)

        shadowed = outer_shadowed | frozenset(locals_)

        def guarded(name: str) -> bool:
            return (
                name in mutable_globals
                and name not in shadowed
                or name in declared_global
            )

        yield from self._scan_body(module, func.body, in_lock=False,
                                   guarded=guarded,
                                   readonly_locals=readonly_locals,
                                   mutable_globals=mutable_globals,
                                   shadowed=shadowed)

    def _scan_body(
        self, module, body, *, in_lock, guarded, readonly_locals,
        mutable_globals, shadowed,
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._scan_stmt(module, stmt, in_lock=in_lock,
                                       guarded=guarded,
                                       readonly_locals=readonly_locals,
                                       mutable_globals=mutable_globals,
                                       shadowed=shadowed)

    def _scan_stmt(
        self, module, stmt, *, in_lock, guarded, readonly_locals,
        mutable_globals, shadowed,
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(module, stmt, mutable_globals,
                                            shadowed)
            return
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            locked = in_lock or any(_is_lock_guard(i) for i in stmt.items)
            yield from self._scan_body(module, stmt.body, in_lock=locked,
                                       guarded=guarded,
                                       readonly_locals=readonly_locals,
                                       mutable_globals=mutable_globals,
                                       shadowed=shadowed)
            return

        yield from self._check_mutations(module, stmt, in_lock, guarded,
                                         readonly_locals)

        for child_body in _nested_bodies(stmt):
            yield from self._scan_body(module, child_body, in_lock=in_lock,
                                       guarded=guarded,
                                       readonly_locals=readonly_locals,
                                       mutable_globals=mutable_globals,
                                       shadowed=shadowed)

    # ------------------------------------------------------------------

    def _check_mutations(
        self, module, stmt, in_lock, guarded, readonly_locals,
    ) -> Iterator[Finding]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets

        for target in targets:
            root = _root_name(target)
            if root is None:
                continue
            if isinstance(target, ast.Name):
                if not in_lock and guarded(root):
                    yield module.finding(
                        self.code, stmt,
                        f"rebinds module global `{root}` outside a "
                        "`with <lock>:` block; racing threads can observe "
                        "a half-initialised value",
                    )
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                if root in readonly_locals:
                    yield module.finding(
                        self.code, stmt,
                        f"mutates `{root}`, which came from a read-only "
                        "cached accessor; copy before modifying",
                    )
                elif not in_lock and guarded(root):
                    yield module.finding(
                        self.code, stmt,
                        f"writes into module-global `{root}` outside a "
                        "`with <lock>:` block",
                    )

        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                method = call.func.attr
                root = _root_name(call.func.value)
                if method == "setflags" and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value
                    for kw in call.keywords
                ):
                    if root in readonly_locals:
                        yield module.finding(
                            self.code, call,
                            f"re-arms writes on `{root}` from a read-only "
                            "cached accessor; copy instead",
                        )
                elif method in _MUTATING_METHODS and root is not None:
                    if root in readonly_locals:
                        yield module.finding(
                            self.code, call,
                            f"calls mutating `.{method}()` on `{root}` from "
                            "a read-only cached accessor; copy first",
                        )
                    elif not in_lock and guarded(root):
                        yield module.finding(
                            self.code, call,
                            f"calls mutating `.{method}()` on module-global "
                            f"`{root}` outside a `with <lock>:` block",
                        )


def _bound_names(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Assign):
        exprs = node.targets
    elif isinstance(node, ast.AnnAssign):
        exprs = [node.target]
    elif isinstance(node, ast.AugAssign):
        exprs = [node.target]
    elif isinstance(node, ast.For):
        exprs = [node.target]
    elif isinstance(node, ast.withitem):
        exprs = [node.optional_vars] if node.optional_vars else []
    elif isinstance(node, ast.comprehension):
        exprs = [node.target]
    else:
        exprs = []
    for expr in exprs:
        if isinstance(expr, ast.Name):
            yield expr.id
        elif isinstance(expr, (ast.Tuple, ast.List)):
            for elt in ast.walk(expr):
                if isinstance(elt, ast.Name):
                    yield elt.id


def _nested_bodies(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    for field_name in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field_name, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(stmt, "handlers", []):
        yield handler.body
