"""RP001 — blocking calls must not be reachable from the KVServer event loop.

The SimKV server serves every connection from one ``selectors`` event
loop (:class:`repro.kvserver.server.KVServer`).  Anything that blocks on
that thread — a ``time.sleep``, a blocking socket call, an indefinite
lock ``acquire()``, a ``select()`` with no timeout — stalls *all*
clients at once, the expiry of their parked ``FETCH`` requests
included.  This rule computes the set of methods reachable (via ``self.*()`` calls) from the
loop entry points — the loop, the request handler, and every ``_cmd_*``
command handler (those are called through the server's dispatch table,
not as ``self.*()``) — and flags blocking primitives found there.  The topic
and group state the handlers call into (:mod:`repro.kvserver.broker`)
is reached through other objects, not ``self``, so every method of
those classes is checked outright.

``with self._lock:`` context-manager acquisitions are deliberately
*not* flagged: the server's convention is that ``with``-scoped critical
sections are short and bounded, whereas an explicit ``.acquire()``
without a timeout encodes an unbounded wait.
"""
from __future__ import annotations

import ast
from typing import Iterable
from typing import Iterator

from repro.analysis.core import Checker
from repro.analysis.core import Finding
from repro.analysis.core import Module
from repro.analysis.core import register_checker

__all__ = ['BlockingCallInEventLoop']

#: Attribute-call names that block the calling thread unconditionally.
_BLOCKING_ATTR_CALLS = frozenset({'sendall', 'makefile', 'getaddrinfo'})


def _method_map(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _self_calls(func: ast.FunctionDef) -> Iterator[str]:
    """Names of ``self.<method>()`` calls made anywhere in ``func``."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == 'self'
        ):
            yield node.func.attr


def _has_timeout(call: ast.Call, *, positional_slot: int) -> bool:
    """True when ``call`` passes a timeout (keyword or positional slot)."""
    if any(kw.arg == 'timeout' for kw in call.keywords):
        return True
    return len(call.args) > positional_slot


def _acquire_is_nonblocking(call: ast.Call) -> bool:
    """``acquire(False)`` / ``acquire(blocking=False)`` never block."""
    for kw in call.keywords:
        if kw.arg == 'blocking':
            return isinstance(kw.value, ast.Constant) and kw.value.value is False
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is False
    return False


@register_checker
class BlockingCallInEventLoop(Checker):
    """Flag blocking primitives reachable from the broker event loop."""

    rule = 'RP001'
    name = 'blocking-call-in-event-loop'
    description = (
        'time.sleep, blocking socket ops, indefinite lock acquire(), or '
        'select() without a timeout reachable from the KVServer event loop'
    )
    #: Classes whose ``self``-call graph is traversed, and the methods
    #: the traversal starts from (the loop itself plus request handlers,
    #: by name or by prefix).
    event_loop_classes: tuple[str, ...] = ('KVServer',)
    entry_methods: tuple[str, ...] = ('_serve_loop', '_handle')
    entry_prefix = '_cmd_'
    #: Classes the loop's handlers run on its thread: every method counts.
    loop_state_classes: tuple[str, ...] = ('GroupState', 'TopicRing')

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Scan every event-loop class defined in ``module``."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in self.event_loop_classes:
                yield from self._check_class(module, node)
            elif node.name in self.loop_state_classes:
                for method in _method_map(node).values():
                    yield from self._check_method(module, node.name, method)

    def _check_class(
        self, module: Module, cls: ast.ClassDef,
    ) -> Iterator[Finding]:
        methods = _method_map(cls)
        reachable: set[str] = set()
        frontier = [
            name for name in methods
            if name in self.entry_methods or name.startswith(self.entry_prefix)
        ]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            frontier.extend(
                callee for callee in _self_calls(methods[name])
                if callee in methods
            )
        for name in sorted(reachable):
            yield from self._check_method(module, cls.name, methods[name])

    def _check_method(
        self, module: Module, class_name: str, func: ast.FunctionDef,
    ) -> Iterator[Finding]:
        where = f'{class_name}.{func.name} (reachable from the event loop)'
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
            ):
                base, attr = target.value.id, target.attr
                if base == 'time' and attr == 'sleep':
                    yield module.finding(
                        self.rule, f'time.sleep() in {where}', node,
                    )
                    continue
                if base == 'socket' and attr == 'create_connection':
                    yield module.finding(
                        self.rule,
                        f'blocking socket.create_connection() in {where}',
                        node,
                    )
                    continue
            if isinstance(target, ast.Attribute):
                attr = target.attr
                if attr in _BLOCKING_ATTR_CALLS:
                    yield module.finding(
                        self.rule, f'blocking .{attr}() call in {where}', node,
                    )
                elif attr == 'acquire':
                    if not _has_timeout(node, positional_slot=1) and (
                        not _acquire_is_nonblocking(node)
                    ):
                        yield module.finding(
                            self.rule,
                            f'lock .acquire() without a timeout in {where}',
                            node,
                        )
                elif attr == 'select':
                    if not _has_timeout(node, positional_slot=0):
                        yield module.finding(
                            self.rule,
                            f'.select() without a timeout in {where} '
                            '(blocks the loop tick forever)',
                            node,
                        )
