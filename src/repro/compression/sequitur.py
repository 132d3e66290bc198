"""Online Sequitur compression (Nevill-Manning & Witten, 1997).

WHOMP compresses each decomposed dimension stream with Sequitur, which
"encodes input data stream as a context-free grammar based on its
repeating patterns" (Section 3.1).  The paper's example:

    "abcbcabcbc"  ->  S -> AA;  A -> aBB;  B -> bc

The implementation enforces the two Sequitur invariants after every
appended token:

* **digram uniqueness** -- no pair of adjacent symbols appears more than
  once in the grammar without overlap (a repeated digram becomes a rule);
* **rule utility** -- every rule other than S is referenced at least
  twice (a rule used once is inlined and deleted).

Enforcement is organized around a *work queue*: every structural edit
(substitution, inlining) records the boundary symbols whose digrams may
have changed, and a drain loop re-checks them until the grammar is
stable.  Queue entries are validated against symbol liveness and the
digram index before acting, which keeps the cascade logic simple and
verifiable; the classic recursive formulation is notoriously easy to get
subtly wrong.

**Terminals** must be hashable, and terminals that compare equal are one
terminal: a repeat may be stored as the first occurrence's object, so
``compress([True, 2, 1, 2]).expand()`` returns ``[True, 2, True, 2]``
(``1.0`` and ``1`` merge the same way).  Feed values of one type whose
equality is identity of meaning: the profilers feed ints, RASG and the
hot-stream miner feed tuples of ints.  A :class:`Rule` is never a
terminal.

**The digram index** maps ``(left.value, right.value)`` to the left
symbol of the registered occurrence.  A non-terminal's value is its
:class:`Rule`, which defines no ``__eq__``/``__hash__`` and so hashes and
compares by identity: it cannot collide with a terminal or with another
rule.  ``Rule`` must keep identity semantics for the index to stay
correct.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

Terminal = Hashable


class _Symbol:
    """A node in a rule's doubly linked symbol list.

    ``value`` is a terminal or a :class:`Rule` (a non-terminal).  Guard
    nodes -- the circular sentinels heading each rule -- carry the rule
    itself as value and are recognized via ``is_guard``.  ``alive``
    turns False when the node is unlinked, letting queued work detect
    stale references.
    """

    __slots__ = ("value", "prev", "next", "is_guard", "is_nonterminal", "alive")

    def __init__(self, value: Union[Terminal, "Rule"], is_guard: bool = False) -> None:
        self.value = value
        self.prev: Optional["_Symbol"] = None
        self.next: Optional["_Symbol"] = None
        self.is_guard = is_guard
        # ``value`` is never reassigned, so the flag cannot go stale
        self.is_nonterminal = not is_guard and isinstance(value, Rule)
        self.alive = True


class Rule:
    """One grammar rule: a guard node heading a circular symbol list.

    ``refs`` tracks the live non-terminal symbols referencing this rule,
    so rule utility (refcount) and the single remaining reference are
    both O(1) lookups.  Do not define ``__eq__``/``__hash__``: the
    digram index keys rules by identity.
    """

    __slots__ = ("id", "guard", "refs")

    def __init__(self, rule_id: int) -> None:
        self.id = rule_id
        self.guard = _Symbol(self, is_guard=True)
        self.guard.prev = self.guard
        self.guard.next = self.guard
        self.refs: "set[_Symbol]" = set()

    @property
    def refcount(self) -> int:
        return len(self.refs)

    @property
    def first(self) -> _Symbol:
        return self.guard.next  # type: ignore[return-value]

    @property
    def last(self) -> _Symbol:
        return self.guard.prev  # type: ignore[return-value]

    @property
    def empty(self) -> bool:
        return self.guard.next is self.guard

    def symbols(self) -> Iterable[_Symbol]:
        node = self.first
        while not node.is_guard:
            yield node
            node = node.next  # type: ignore[assignment]

    def length(self) -> int:
        return sum(1 for __ in self.symbols())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"R{s.value.id}" if s.is_nonterminal else repr(s.value)
            for s in self.symbols()
        ]
        return f"R{self.id} -> {' '.join(parts)}"


def _varint_len(value: int) -> int:
    """Bytes to encode ``value`` as a zigzag LEB128-style varint."""
    encoded = value * 2 if value >= 0 else -value * 2 - 1
    length = 1
    while encoded >= 0x80:
        encoded >>= 7
        length += 1
    return length


def _encoded_terminal_len(value: Terminal) -> int:
    """Serialized size of one terminal: varint for integers, a flat
    8-byte record for anything else (tuples etc.)."""
    if isinstance(value, bool) or not isinstance(value, int):
        return 8
    return _varint_len(value)


Digram = Tuple[Hashable, Hashable]


def _digram_key(left: _Symbol, right: _Symbol) -> Digram:
    """Hashable identity of a digram; rules key by their id.

    Only :meth:`SequiturGrammar.check_invariants` uses it, so the check
    does not rely on the value-keyed index it is checking.
    """
    lk = ("R", left.value.id) if left.is_nonterminal else ("T", left.value)
    rk = ("R", right.value.id) if right.is_nonterminal else ("T", right.value)
    return (lk, rk)


class SequiturGrammar:
    """An incrementally built Sequitur grammar.

    >>> g = SequiturGrammar()
    >>> g.feed_all("abcbcabcbc")
    >>> g.expand() == list("abcbcabcbc")
    True
    """

    def __init__(self) -> None:
        self._next_rule_id = 0
        self.start = self._new_rule()
        # digram key -> the left symbol of its registered occurrence
        self._digrams: Dict[Digram, _Symbol] = {}
        self._pending: List[_Symbol] = []
        self._tokens_fed = 0

    # -- public API ----------------------------------------------------

    def feed(self, token: Terminal) -> None:
        """Append one terminal to the input sequence."""
        self._tokens_fed += 1
        guard = self.start.guard
        last = guard.prev
        new = _Symbol(token)
        new.prev = last
        new.next = guard
        last.next = guard.prev = new
        self._pending.append(last)
        self._drain()

    def feed_all(self, tokens: Iterable[Terminal]) -> None:
        for token in tokens:
            self.feed(token)

    @property
    def tokens_fed(self) -> int:
        return self._tokens_fed

    def rules(self) -> List[Rule]:
        """All rules reachable from the start rule, in id order."""
        seen: Dict[int, Rule] = {}
        stack = [self.start]
        while stack:
            rule = stack.pop()
            if rule.id in seen:
                continue
            seen[rule.id] = rule
            for symbol in rule.symbols():
                if symbol.is_nonterminal:
                    stack.append(symbol.value)
        return [seen[rid] for rid in sorted(seen)]

    def size(self) -> int:
        """Grammar size: total symbols on all right-hand sides.

        The standard measure of a Sequitur grammar's size, and what the
        OMSG-vs-RASG compression comparison counts.
        """
        return sum(rule.length() for rule in self.rules())

    def rule_count(self) -> int:
        return len(self.rules())

    def size_bytes(self, bytes_per_symbol: int = 4) -> int:
        """Approximate serialized size: one fixed-width code per RHS
        symbol plus one header code per rule."""
        return (self.size() + self.rule_count()) * bytes_per_symbol

    def size_bytes_varint(self) -> int:
        """Serialized size with variable-length integer coding.

        This is the size a real grammar file would have: every RHS
        symbol is one tag bit plus a zigzag varint (terminal value or
        rule id), and each rule costs a varint length header.  The
        metric is what makes the byte-level OMSG/RASG comparison honest:
        object-relative streams carry small integers (offsets, serials,
        group ids) where the raw address stream carries 64-bit pointers.
        """
        total = 0
        for rule in self.rules():
            length = 0
            for symbol in rule.symbols():
                if symbol.is_nonterminal:
                    total += _varint_len(symbol.value.id)
                else:
                    total += _encoded_terminal_len(symbol.value)
                length += 1
            total += _varint_len(length)
        return total

    def expand(self) -> List[Terminal]:
        """Decompress: expand the start rule back to the input sequence."""
        out: List[Terminal] = []
        stack: List[_Symbol] = list(reversed(list(self.start.symbols())))
        while stack:
            symbol = stack.pop()
            if symbol.is_nonterminal:
                stack.extend(reversed(list(symbol.value.symbols())))
            else:
                out.append(symbol.value)
        return out

    def to_productions(self) -> Dict[int, List[Union[Terminal, "Ref"]]]:
        """Plain-data view: rule id -> RHS list; non-terminal references
        appear as :class:`Ref` instances, terminals verbatim."""
        productions: Dict[int, List[Union[Terminal, Ref]]] = {}
        for rule in self.rules():
            rhs: List[Union[Terminal, Ref]] = []
            for symbol in rule.symbols():
                if symbol.is_nonterminal:
                    rhs.append(Ref(symbol.value.id))
                else:
                    rhs.append(symbol.value)
            productions[rule.id] = rhs
        return productions

    @classmethod
    def from_productions(
        cls,
        productions: Dict[int, List[Union[Terminal, "Ref"]]],
        start: int = 0,
        tokens_fed: int = 0,
    ) -> "SequiturGrammar":
        """Rebuild a grammar from its :meth:`to_productions` view.

        The reconstruction is structurally exact -- same rules, same
        right-hand sides -- so every size metric, :meth:`expand`, and a
        further :meth:`to_productions` round-trip match the original.
        The digram index is re-derived (first occurrence per key), so
        the grammar remains feedable.  This is also the pickle path:
        the linked-symbol structure defeats naive pickling, but the
        production view crosses process boundaries as plain data.
        """
        grammar = cls.__new__(cls)
        grammar._digrams = {}
        grammar._pending = []
        grammar._tokens_fed = tokens_fed
        rules: Dict[int, Rule] = {rid: Rule(rid) for rid in productions}
        if start not in rules:
            rules[start] = Rule(start)
        grammar._next_rule_id = max(rules) + 1
        grammar.start = rules[start]
        for rule_id, rhs in productions.items():
            rule = rules[rule_id]
            for symbol in rhs:
                if isinstance(symbol, Ref):
                    try:
                        node = _Symbol(rules[symbol.rule_id])
                    except KeyError:
                        raise ValueError(
                            f"R{rule_id} references undefined R{symbol.rule_id}"
                        ) from None
                else:
                    node = _Symbol(symbol)
                grammar._insert_after(rule.guard.prev, node)
        for rule_id in sorted(rules):
            node = rules[rule_id].first
            while not node.is_guard and not node.next.is_guard:
                grammar._digrams.setdefault((node.value, node.next.value), node)
                node = node.next
        return grammar

    def __reduce__(self):
        return (
            _grammar_from_state,
            (self.to_productions(), self.start.id, self._tokens_fed),
        )

    def check_invariants(self) -> None:
        """Assert digram uniqueness and rule utility (used by tests).

        Digram uniqueness permits *overlapping* repeats (``aaa``): the
        algorithm deliberately leaves those alone.
        """
        seen: Dict[Digram, _Symbol] = {}
        for rule in self.rules():
            node = rule.first
            while not node.is_guard and not node.next.is_guard:
                key = _digram_key(node, node.next)
                first = seen.get(key)
                if first is None:
                    seen[key] = node
                else:
                    assert first.next is node, (
                        f"digram uniqueness violated for {key} in R{rule.id}"
                    )
                node = node.next
        for rule in self.rules():
            if rule is not self.start:
                assert rule.refcount >= 2, f"rule utility violated for R{rule.id}"

    # -- structural edits (no invariant logic here) -----------------------

    def _new_rule(self) -> Rule:
        rule = Rule(self._next_rule_id)
        self._next_rule_id += 1
        return rule

    def _insert_after(self, node: _Symbol, new: _Symbol) -> None:
        new.prev = node
        new.next = node.next
        node.next.prev = new  # type: ignore[union-attr]
        node.next = new
        if new.is_nonterminal:
            new.value.refs.add(new)

    def _unlink(self, node: _Symbol) -> None:
        node.prev.next = node.next  # type: ignore[union-attr]
        node.next.prev = node.prev  # type: ignore[union-attr]
        node.alive = False
        if node.is_nonterminal:
            node.value.refs.discard(node)

    def _forget_digram(self, left: _Symbol) -> None:
        """Drop the digram starting at ``left`` from the index if it is
        the registered occurrence.

        An *overlapping* second occurrence of the same key (the ``aaa``
        case) may exist unregistered in the shadow of this one; queue
        the neighbours so it gets re-checked once the edit completes.
        """
        right = left.next
        if left.is_guard or right is None or right.is_guard:
            return
        key = (left.value, right.value)
        if self._digrams.get(key) is left:
            del self._digrams[key]
            self._pending.append(left.prev)  # type: ignore[arg-type]
            self._pending.append(right)

    # -- invariant enforcement -------------------------------------------

    def _drain(self) -> None:
        """Process queued digram positions until the grammar is stable,
        enforcing digram uniqueness for the digram starting at each."""
        pending = self._pending
        digrams = self._digrams
        while pending:
            left = pending.pop()
            if not left.alive or left.is_guard:
                continue
            right = left.next
            if right is None or right.is_guard:
                continue
            key = (left.value, right.value)
            match = digrams.get(key)
            if match is left:
                continue
            after = None if match is None else match.next
            if (
                # the registration is stale: no longer a live occurrence
                after is None
                or not match.alive
                or match.is_guard
                or after.is_guard
                or (match.value, after.value) != key
            ):
                digrams[key] = left
            elif not (after is left or right is match):
                # (an overlapping occurrence, "aaa", is left alone)
                self._handle_match(left, match)

    def _handle_match(self, new_left: _Symbol, old_left: _Symbol) -> None:
        """Rewrite two non-overlapping occurrences of one digram."""
        old_right = old_left.next
        assert old_right is not None
        if (
            old_left.prev.is_guard  # type: ignore[union-attr]
            and old_right.next.is_guard  # type: ignore[union-attr]
        ):
            # The registered occurrence is exactly an existing rule's
            # whole body: reuse that rule.
            rule: Rule = old_left.prev.value  # type: ignore[union-attr]
            self._substitute(new_left, rule)
            self._maybe_inline_head(rule)
            return
        rule = self._new_rule()
        body_left = _Symbol(old_left.value)
        body_right = _Symbol(old_right.value)
        self._insert_after(rule.guard, body_left)
        self._insert_after(body_left, body_right)
        self._digrams[(body_left.value, body_right.value)] = body_left
        # Replace the old occurrence first, then the new one.  Inlining
        # triggered by the first substitution can consume the second
        # occurrence (when it was the sole reference to an inlined
        # rule); the liveness flag detects that.
        self._substitute(old_left, rule)
        if new_left.alive:
            self._substitute(new_left, rule)
        self._maybe_inline_head(rule)

    def _substitute(self, left: _Symbol, rule: Rule) -> None:
        """Replace the digram starting at ``left`` with a reference to
        ``rule`` and queue the changed boundaries."""
        right = left.next
        prev = left.prev
        assert right is not None and prev is not None
        self._forget_digram(prev)
        self._forget_digram(left)
        self._forget_digram(right)
        # Unlink both symbols and link the reference in their place,
        # leaving the dead pair's pointers as two ``_unlink`` calls
        # would: ``right.prev`` must not point back at ``left``, or the
        # pair becomes a cycle only the garbage collector can free.
        left.alive = right.alive = False
        if left.is_nonterminal:
            left.value.refs.discard(left)
        if right.is_nonterminal:
            right.value.refs.discard(right)
        after = right.next
        right.prev = prev
        ref = _Symbol(rule)
        ref.prev = prev
        ref.next = after
        prev.next = after.prev = ref
        rule.refs.add(ref)
        pending = self._pending
        pending.append(prev)
        pending.append(ref)
        # Rule utility: removing the two symbols may have dropped some
        # rule's reference count to one.
        if left.is_nonterminal:
            self._maybe_inline(left)
        if right.is_nonterminal:
            self._maybe_inline(right)

    def _maybe_inline_head(self, rule: Rule) -> None:
        """After substitutions into ``rule``, its body symbols may now be
        the sole reference to some other rule; check both body symbols
        that formed the digram."""
        guard = rule.guard
        for symbol in (guard.next, guard.prev):
            if symbol.alive and symbol.is_nonterminal:
                self._maybe_inline(symbol)

    def _maybe_inline(self, removed: _Symbol) -> None:
        """Rule utility: inline a rule whose refcount dropped to one.

        ``removed`` is a non-terminal and only supplies the rule identity
        (``removed.value``); the body's symbol nodes move wholesale into
        the referencing rule, so their digram registrations stay valid.
        Only the two boundary digrams around the reference change; they
        are queued.
        """
        rule: Rule = removed.value
        if len(rule.refs) != 1:
            return
        ref = next(iter(rule.refs))
        prev, next_node = ref.prev, ref.next
        assert prev is not None and next_node is not None
        self._forget_digram(prev)
        self._forget_digram(ref)
        first, last = rule.first, rule.last
        self._unlink(ref)  # rule's refcount drops to zero: rule is dead
        if rule.empty:
            self._pending.append(prev)
            return
        prev.next = first
        first.prev = prev
        last.next = next_node
        next_node.prev = last
        self._pending.append(prev)
        self._pending.append(last)


class Ref:
    """A non-terminal reference in :meth:`SequiturGrammar.to_productions`."""

    __slots__ = ("rule_id",)

    def __init__(self, rule_id: int) -> None:
        self.rule_id = rule_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.rule_id == self.rule_id

    def __hash__(self) -> int:
        return hash(("Ref", self.rule_id))

    def __repr__(self) -> str:
        return f"Ref({self.rule_id})"


def _grammar_from_state(productions, start, tokens_fed) -> SequiturGrammar:
    """Module-level unpickle hook for :meth:`SequiturGrammar.__reduce__`
    (subclass-agnostic pickling would lose the production round-trip)."""
    return SequiturGrammar.from_productions(
        productions, start=start, tokens_fed=tokens_fed
    )


def compress(tokens: Iterable[Terminal]) -> SequiturGrammar:
    """One-shot convenience: build a grammar over ``tokens``."""
    grammar = SequiturGrammar()
    grammar.feed_all(tokens)
    return grammar
