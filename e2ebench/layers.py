"""Per-layer clocks wrapped around the program's public calls.

The traced run replaces a layer's public function (or method) with a
wrapper that times each call and adds it to a process-wide table:
calls, total seconds, self seconds (total minus the wrapped calls made
inside it) and rows, for functions that take a row batch. Nothing in
the program changes; only the names it looks up at call time do.

A name copied into other modules by ``from x import f`` is replaced in
every loaded ``repro`` module that holds the same object, so call sites
that captured the function at import time are timed too. Re-entry into
a clock that is already open on the stack passes straight through, so
``pack_signs`` calling ``sign_bits`` counts once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable

#: name -> [calls, total_s, self_s, rows, longest_s]
TOTALS: dict[str, list[float]] = {}

#: Open synchronous clocks: [name, start, child_seconds].
_STACK: list[list[Any]] = []


def reset() -> None:
    TOTALS.clear()


def add(name: str, seconds: float, self_s: float | None = None, rows: int = 0) -> None:
    entry = TOTALS.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
    entry[0] += 1
    entry[1] += seconds
    entry[2] += seconds if self_s is None else self_s
    entry[3] += rows
    entry[4] = max(entry[4], seconds)


def snapshot() -> dict[str, dict[str, float]]:
    return {
        name: {"calls": c, "total_s": t, "self_s": s, "rows": r, "longest_s": m}
        for name, (c, t, s, r, m) in TOTALS.items()
    }


def _row_count(value: Any) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        try:
            return len(value)
        except TypeError:
            return 0
    return 1 if len(shape) < 2 else int(shape[0])


def clock(name: str, fn: Callable, rows_arg: int | None = None) -> Callable:
    """Wrap ``fn`` so each call is added to ``TOTALS[name]``.

    ``rows_arg`` is the positional index of the row batch, if any.
    Coroutine functions get an async wrapper that records totals only:
    concurrent coroutines interleave, so they take no part in the
    synchronous self-time stack.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def timed_async(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                add(name, time.perf_counter() - start)

        return timed_async

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if any(frame[0] == name for frame in _STACK):
            return fn(*args, **kwargs)
        frame = [name, time.perf_counter(), 0.0]
        _STACK.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            _STACK.pop()
            elapsed = time.perf_counter() - frame[1]
            if _STACK:
                _STACK[-1][2] += elapsed
            rows = (
                _row_count(args[rows_arg])
                if rows_arg is not None and len(args) > rows_arg
                else 0
            )
            add(name, elapsed, elapsed - frame[2], rows)

    return timed


def patch_method(owner: type, attr: str, name: str, rows_arg: int | None = None) -> None:
    """Time ``owner.attr`` (looked up through the class at call time)."""
    setattr(owner, attr, clock(name, getattr(owner, attr), rows_arg))


def patch_function(module: Any, attr: str, name: str, rows_arg: int | None = None) -> None:
    """Time a module-level function under every name that holds it."""
    original = getattr(module, attr)
    wrapped = clock(name, original, rows_arg)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        namespace = getattr(mod, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def require(snap: dict, names: tuple[str, ...]) -> None:
    """Fail when a clock of a layer the workload enters saw no call.

    A silent clock most likely no longer binds (the program reached the
    layer through a name the patcher did not replace); reporting 0 for
    it would hide that.
    """
    silent = sorted(name for name in names if not snap.get(name, {}).get("calls"))
    if silent:
        raise RuntimeError(f"traced run: no call recorded by the clocks {silent}")


def per_call(snap: dict, name: str, field: str = "total_s") -> float:
    """Mean ``field`` per call of a clock in a snapshot; 0 if never called."""
    entry = snap.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return entry[field] / entry["calls"]


def per_row(snap: dict, name: str, field: str = "total_s") -> float:
    """``field`` per row of a clock in a snapshot; 0 if it saw no rows."""
    entry = snap.get(name)
    if not entry or not entry["rows"]:
        return 0.0
    return entry[field] / entry["rows"]
