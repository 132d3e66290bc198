"""The cross-module class model behind the lockset checker.

Builds, from the parsed tree alone, what the race detector needs to
know about every class:

* which attributes exist, where they are assigned, and which of them
  are **locks** (``self._lock = threading.Lock()`` and friends, plus a
  naming fallback for locks constructed elsewhere);
* which attributes hold instances of other project classes
  (``self.cache = LRUCache(...)``) -- the *composition* edges along
  which thread-shared status propagates;
* which methods exist, and which private methods are only ever called
  from ``__init__`` (initialization extensions, exempt from lockset
  rules) or only from under a held lock (they inherit it).

Thread-shared inference starts from the seed classes named in the
issue (the daemon, the store, the cache, the quarantine, the event
log, the telemetry registry), adds every ``# repro: shared`` class,
and closes over inheritance and composition: anything a shared class
holds in an attribute, or derives from one, is reachable from the same
threads.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.selfcheck.loader import SourceModule, class_directives, dotted_name

#: classes that are thread-shared by construction in this codebase
DEFAULT_SHARED_SEEDS = frozenset(
    {
        # the HTTP service core: its lifecycle, in-flight and metrics
        # state is touched by every handler thread of both daemons
        # (StoreServer and ClusterRouter inherit the shared status)
        "HTTPService",
        "LRUCache",
        "ProfileStore",
        "Quarantine",
        "EventLog",
        "Registry",
        # SCALE-OUT cluster state: handler threads, the health-probe
        # thread, and the supervisor callback all share these
        "RingState",
        "ShardHealthTable",
        "DigestMerger",
    }
)

#: threading constructors whose product is a mutual-exclusion guard
_LOCK_CONSTRUCTORS = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
    }
)


def is_lock_name(name: str) -> bool:
    """Naming-convention fallback: ``lock`` / ``*_lock`` attributes."""
    return name == "lock" or name.endswith("_lock")


def is_io_lock_name(name: str) -> bool:
    """Locks that exist to serialize I/O, not to guard in-memory state.

    Holding one across a write is the *fix* for RL103, so the checker
    must not re-convict it: the convention is a ``sink``/``io`` lock
    name (``_sink_lock``, ``_io_lock``).
    """
    return "sink" in name or "io_lock" in name or "write_lock" in name


@dataclass
class AttrInfo:
    """One instance attribute of a class."""

    name: str
    assigned_in_init: bool = False
    #: (line, col, method) of every mutation outside init context
    post_init_mutations: List[Tuple[int, int, str]] = field(
        default_factory=list
    )
    #: class name when assigned ``self.x = ClassName(...)``
    value_class: Optional[str] = None
    is_lock: bool = False
    #: ``threading.local()``: each thread sees its own copy, so
    #: mutations through it are thread-confined
    is_thread_local: bool = False


@dataclass
class ClassInfo:
    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    attrs: Dict[str, AttrInfo] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    directives: Set[str] = field(default_factory=set)

    @property
    def qualified(self) -> str:
        return f"{self.module.name}.{self.name}"

    @property
    def lock_attrs(self) -> Set[str]:
        return {a.name for a in self.attrs.values() if a.is_lock}

    @property
    def synchronized_externally(self) -> bool:
        return "synchronized-externally" in self.directives

    def guarded_attrs(self) -> Set[str]:
        """Attributes with at least one post-init mutation site --
        the state a lock exists to protect."""
        return {
            a.name
            for a in self.attrs.values()
            if a.post_init_mutations and not a.is_lock
            and not a.is_thread_local
        }


def _is_lock_call(call: ast.AST) -> bool:
    if not isinstance(call, ast.Call):
        return False
    name = dotted_name(call.func)
    return name in _LOCK_CONSTRUCTORS if name is not None else False


def _is_thread_local_call(call: ast.AST) -> bool:
    return isinstance(call, ast.Call) and dotted_name(call.func) in (
        "local",
        "threading.local",
    )


def _class_of_value(value: ast.AST) -> Optional[str]:
    """``ClassName`` when the value is a direct instantiation."""
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None:
            tail = name.rsplit(".", 1)[-1]
            if tail[:1].isupper():
                return tail
    return None


_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "update",
        "setdefault",
        "add",
        "move_to_end",
        "sort",
        "reverse",
    }
)


def self_attr_of_target(target: ast.AST) -> Optional[str]:
    """The ``self`` attribute a store/del target mutates, if any.

    ``self.x = ...`` and ``self.x[...] = ...`` and ``self.x.y = ...``
    all mutate state hanging off attribute ``x``.
    """
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None


def mutated_self_attr(node: ast.AST) -> Optional[Tuple[str, ast.AST]]:
    """``(attr, site)`` when ``node`` mutates a ``self`` attribute."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            for element in _flatten_targets(target):
                attr = self_attr_of_target(element)
                if attr is not None:
                    return attr, node
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = self_attr_of_target(target)
            if attr is not None:
                return attr, node
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS:
            receiver = node.func.value
            attr = None
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                attr = receiver.attr
            if attr is not None:
                return attr, node
    return None


def _flatten_targets(target: ast.AST):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


def _init_like_methods(info: ClassInfo) -> Set[str]:
    """``__init__`` plus private methods called only from init context."""
    call_sites: Dict[str, Set[str]] = {}
    for method_name, method in info.methods.items():
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                call_sites.setdefault(node.func.attr, set()).add(method_name)
    init_like = {"__init__"}
    changed = True
    while changed:
        changed = False
        for method_name in info.methods:
            if method_name in init_like:
                continue
            if not method_name.startswith("_"):
                continue
            sites = call_sites.get(method_name)
            if sites and sites <= init_like:
                init_like.add(method_name)
                changed = True
    return init_like


def build_class_info(module: SourceModule, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        module=module,
        node=node,
        bases=[dotted_name(b) or "" for b in node.bases],
        directives=class_directives(module, node),
    )
    for child in node.body:
        if isinstance(child, ast.FunctionDef):
            info.methods[child.name] = child
    # first pass: attribute discovery (init assignments, locks, classes)
    for method_name, method in info.methods.items():
        for inner in ast.walk(method):
            found = mutated_self_attr(inner)
            if found is None:
                continue
            attr_name, site = found
            attr = info.attrs.setdefault(attr_name, AttrInfo(attr_name))
            if isinstance(
                site, (ast.Assign, ast.AnnAssign)
            ) and method_name == "__init__":
                attr.assigned_in_init = True
                value = site.value
                if value is not None:
                    if _is_lock_call(value):
                        attr.is_lock = True
                    attr.is_thread_local = _is_thread_local_call(value)
                    value_class = _class_of_value(value)
                    if value_class is not None and not attr.is_lock:
                        attr.value_class = value_class
            if is_lock_name(attr_name):
                attr.is_lock = True
            # composition edges from any method, not just __init__
            if isinstance(site, (ast.Assign, ast.AnnAssign)):
                value = site.value
                if value is not None and not attr.is_lock:
                    value_class = _class_of_value(value)
                    if value_class is not None:
                        attr.value_class = value_class
    # second pass: post-init mutation sites
    init_like = _init_like_methods(info)
    for method_name, method in info.methods.items():
        if method_name in init_like:
            continue
        for inner in ast.walk(method):
            found = mutated_self_attr(inner)
            if found is None:
                continue
            attr_name, site = found
            attr = info.attrs.setdefault(attr_name, AttrInfo(attr_name))
            attr.post_init_mutations.append(
                (site.lineno, site.col_offset, method_name)
            )
    return info


class ClassIndex:
    """Every class in the analyzed tree, keyed by bare and dotted name."""

    def __init__(self, modules: List[SourceModule]) -> None:
        self.by_name: Dict[str, ClassInfo] = {}
        self.all: List[ClassInfo] = []
        for module in modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    info = build_class_info(module, node)
                    self.all.append(info)
                    # bare-name lookup: first definition wins, which is
                    # fine in this tree (class names are unique)
                    self.by_name.setdefault(info.name, info)
                    self.by_name[info.qualified] = info

    def get(self, name: Optional[str]) -> Optional[ClassInfo]:
        if name is None:
            return None
        return self.by_name.get(name)

    def lineage(self, info: ClassInfo) -> List[ClassInfo]:
        """``info`` followed by its project base classes, transitively:
        a subclass holds (and may take) every lock its bases own."""
        out = [info]
        for current in out:
            for base in current.bases:
                base_info = self.get(base)
                if base_info is not None and base_info not in out:
                    out.append(base_info)
        return out

    def shared_classes(
        self, seeds: frozenset = DEFAULT_SHARED_SEEDS
    ) -> Set[str]:
        """Bare names of thread-shared classes: seeds + annotations,
        closed over inheritance and composition."""
        shared: Set[str] = set()
        for info in self.all:
            if info.name in seeds or "shared" in info.directives:
                shared.add(info.name)
            if info.synchronized_externally:
                shared.add(info.name)
        changed = True
        while changed:
            changed = False
            for info in self.all:
                if info.name in shared:
                    # composition: attributes holding project classes
                    for attr in info.attrs.values():
                        held = self.get(attr.value_class)
                        if held is not None and held.name not in shared:
                            shared.add(held.name)
                            changed = True
                    continue
                # inheritance: subclasses of shared classes are shared
                for base in info.bases:
                    base_info = self.get(base)
                    if base_info is not None and base_info.name in shared:
                        shared.add(info.name)
                        changed = True
                        break
        return shared
