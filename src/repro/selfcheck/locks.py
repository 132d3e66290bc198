"""Intraprocedural lockset tracking over function bodies.

For every statement of a method the tracker computes the set of locks
held when it executes: ``with self._lock:`` regions, nested withs,
multi-item withs, and locks *inherited* by private methods whose every
intra-class call site holds them (``ProfileStore._append_record`` runs
under the ingest lock without naming it).

A with-item counts as a lock guard when its expression is a dotted
``self`` chain that either resolves -- through the class model -- to an
attribute constructed as ``threading.Lock()``/``RLock()``, or falls
under the naming convention (``lock`` / ``*_lock``).  Semaphores and
telemetry spans never count: a semaphore of width eight is not mutual
exclusion.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.selfcheck.classmodel import ClassIndex, ClassInfo, is_lock_name
from repro.selfcheck.loader import dotted_name

EMPTY: FrozenSet[str] = frozenset()


def lock_key(
    expr: ast.AST, owner: Optional[ClassInfo], index: Optional[ClassIndex]
) -> Optional[str]:
    """Canonical key (``self._lock``, ``self.metrics.lock``) when the
    with-item expression is a recognizable mutual-exclusion guard."""
    name = dotted_name(expr)
    if name is None or "." not in name:
        # bare local lock objects still guard by naming convention
        if name is not None and is_lock_name(name):
            return name
        return None
    parts = name.split(".")
    final = parts[-1]
    if is_lock_name(final):
        return name
    # resolve the attribute chain through the class model: self ->
    # owner class, each attribute hop follows composition edges
    if parts[0] == "self" and owner is not None and index is not None:
        info: Optional[ClassInfo] = owner
        for hop in parts[1:-1]:
            if info is None:
                return None
            attr = info.attrs.get(hop)
            info = index.get(attr.value_class) if attr is not None else None
        if info is not None:
            # a lock the class inherits guards like one it owns
            for holder in index.lineage(info):
                attr = holder.attrs.get(final)
                if attr is not None and attr.is_lock:
                    return name
    return None


class LockTracker:
    """Yields ``(node, held_locks)`` for every node of a function."""

    def __init__(
        self,
        owner: Optional[ClassInfo] = None,
        index: Optional[ClassIndex] = None,
    ) -> None:
        self.owner = owner
        self.index = index

    def walk(
        self, function: ast.FunctionDef, initial: FrozenSet[str] = EMPTY
    ) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
        for statement in function.body:
            yield from self._walk(statement, initial)

    def _walk(
        self, node: ast.AST, held: FrozenSet[str]
    ) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                key = lock_key(item.context_expr, self.owner, self.index)
                if key is not None:
                    acquired.add(key)
                yield item.context_expr, held
            inner = frozenset(acquired)
            for child in node.body:
                yield from self._walk(child, inner)
            return
        # nested defs get a fresh (empty) lockset: they run later
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, held
            for child in node.body:
                yield from self._walk(child, EMPTY)
            return
        yield node, held
        for child in ast.iter_child_nodes(node):
            yield from self._walk(child, held)


def inherited_locksets(
    info: ClassInfo, index: ClassIndex
) -> Dict[str, FrozenSet[str]]:
    """Locks a method can assume held on entry.

    A private method inherits the *intersection* of the locksets held
    at its intra-class call sites (it is never called from outside the
    class by convention); the ``_locked`` suffix asserts ``self._lock``
    explicitly.  Public methods assume nothing.  Iterates to a fixed
    point so chains of private helpers resolve.
    """
    inherited: Dict[str, FrozenSet[str]] = {}
    for name in info.methods:
        if name.endswith("_locked"):
            inherited[name] = frozenset({"self._lock"})
    for _round in range(4):
        changed = False
        call_locks: Dict[str, List[FrozenSet[str]]] = {}
        for method_name, method in info.methods.items():
            start = inherited.get(method_name, EMPTY)
            tracker = LockTracker(info, index)
            for node, held in tracker.walk(method, start):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in info.methods
                ):
                    call_locks.setdefault(node.func.attr, []).append(held)
        for method_name in info.methods:
            if not method_name.startswith("_"):
                continue
            sites = call_locks.get(method_name)
            if not sites:
                continue
            meet = frozenset.intersection(*sites)
            base = inherited.get(method_name, EMPTY)
            merged = base | meet
            if merged != base:
                inherited[method_name] = merged
                changed = True
        if not changed:
            break
    return inherited
