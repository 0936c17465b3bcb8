"""RL004 hold-pairing, RL005 thread-hygiene, RL006 reactor-affinity.

RL004 — refcounted holds (``retain``/``release``, ``retain_cached``/
``release_cached``), shm attachments (``attach``/``close``) and the pool's
reserved-but-uncommitted segments (``_acquire_segment``/
``_pool_segment_locked``: reserve → fill → commit, or give the segment back)
that are *acquired and released in the same function* must release on a
``finally`` path.  Two shapes are deliberately allowed:

* acquire-only functions — ownership transfers to another component (the
  producer retains, the ack path releases later);
* release-only-in-``except`` — the compensation pattern (keep the hold on
  success, give it back if publishing failed).

What is flagged is the in-between shape: a release on the straight-line path
with nothing covering the exception exits.

RL005 — every ``threading.Thread(...)`` must pass ``name="repro-..."`` and an
explicit ``daemon=``; this is the static twin of the runtime leaked-thread
fixture in ``tests/conftest.py``.

RL006 — functions marked ``@reactor_only`` (and ``_on_readable``-style
callbacks) run on the reactor thread and must never block or dial sockets,
and selector state may only be touched from such functions.  Metric
instruments (``repro.obs.metrics`` counters/gauges/histograms) are allowed
on the reactor thread *only* through their per-thread-cell recording methods
(``inc``/``add``/``set``/``observe``); the aggregation side (``value``,
``snapshot``, ``percentile``, ...) merges cells under the instrument lock
and is flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.locks import classify_blocking_call
from repro.analysis.regions import receiver_kind
from repro.analysis.symbols import FunctionInfo, ModuleInfo, own_walk

# ---------------------------------------------------------------------------
# RL004 — hold pairing
# ---------------------------------------------------------------------------

#: acquire method name -> the release method names that balance it.
_HOLD_PAIRS: Dict[str, Tuple[str, ...]] = {
    "retain": ("release", "release_if_present"),
    "retain_cached": ("release_cached",),
    "attach": ("close", "detach"),
    "_acquire_segment": ("_pool_segment_locked",),
}
_ALL_RELEASES = {name for names in _HOLD_PAIRS.values() for name in names}


def _source_line(module: ModuleInfo, lineno: int) -> str:
    if 1 <= lineno <= len(module.lines):
        return module.lines[lineno - 1].strip()
    return ""


def _finding(
    rule: str, module: ModuleInfo, node: ast.AST, qualname: str, message: str
) -> Finding:
    return Finding(
        rule=rule,
        path=module.path,
        line=node.lineno,
        qualname=qualname,
        message=message,
        source=_source_line(module, node.lineno),
    )


def _call_positions(fn: FunctionInfo) -> Dict[int, str]:
    """Map each node id in ``fn`` to its structural position:
    ``"finally"``, ``"except"`` or ``"normal"``."""
    positions: Dict[int, str] = {}

    def mark(node: ast.AST, position: str) -> None:
        for sub in ast.walk(node):
            positions[id(sub)] = position

    def walk(node: ast.AST, position: str) -> None:
        if isinstance(node, ast.Try):
            for stmt in node.body + node.orelse:
                walk(stmt, position)
            for handler in node.handlers:
                mark(handler, "except")
            for stmt in node.finalbody:
                mark(stmt, "finally")
            return
        positions[id(node)] = position
        for child in ast.iter_child_nodes(node):
            walk(child, position)

    walk(fn.node, "normal")
    return positions


def check_hold_pairing(module: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []
    for fn in module.functions:
        acquires: List[Tuple[str, ast.Call]] = []
        releases: List[Tuple[str, ast.Call]] = []
        context_managed: Set[int] = set()
        for node in own_walk(fn.node):
            if isinstance(node, ast.With):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        context_managed.add(id(item.context_expr))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if name in _HOLD_PAIRS:
                    acquires.append((name, node))
                if name in _ALL_RELEASES:
                    releases.append((name, node))
        if not acquires or not releases:
            continue
        positions = _call_positions(fn)
        for acquire_name, acquire_node in acquires:
            if id(acquire_node) in context_managed:
                continue  # with pool.attach(...) — the with block releases
            matching = [
                (name, node)
                for name, node in releases
                if name in _HOLD_PAIRS[acquire_name]
            ]
            if not matching:
                continue  # acquire-only: ownership transferred elsewhere
            release_positions = {
                positions.get(id(node), "normal") for _name, node in matching
            }
            if "finally" in release_positions:
                continue
            if release_positions <= {"except"}:
                continue  # compensation pattern: release only on failure
            findings.append(
                _finding(
                    "RL004",
                    module,
                    acquire_node,
                    fn.qualname,
                    f"'{acquire_name}' is balanced by "
                    f"'{matching[0][0]}' (line {matching[0][1].lineno}) on the "
                    "normal path only; move the release into try/finally so "
                    "exception exits do not leak the hold",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RL005 — thread hygiene
# ---------------------------------------------------------------------------


def _thread_name_ok(value: ast.AST) -> bool:
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value.startswith("repro-")
    if isinstance(value, ast.JoinedStr) and value.values:
        first = value.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value.startswith("repro-")
        return False  # f-string starting with a placeholder: no fixed prefix
    # Computed names (variables, str.format) are accepted as-is; the check
    # targets the common literal case.
    return True


def check_thread_hygiene(module: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []
    for fn in module.functions:
        for node in own_walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if module.constructor_kind(node) != "thread":
                continue
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            problems: List[str] = []
            if "name" not in kwargs:
                problems.append('missing name= (use name="repro-...")')
            elif not _thread_name_ok(kwargs["name"]):
                problems.append('thread name should start with "repro-"')
            if "daemon" not in kwargs:
                problems.append("missing explicit daemon=")
            if problems:
                findings.append(
                    _finding(
                        "RL005",
                        module,
                        node,
                        fn.qualname,
                        "threading.Thread(...) " + "; ".join(problems),
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# RL006 — reactor affinity
# ---------------------------------------------------------------------------

#: Callback names treated as reactor-affine even without the decorator.
_REACTOR_CALLBACK_NAMES = {"_on_readable"}

#: The only methods of a kind-"metric" receiver that are lock-free on the
#: hot path (per-thread accumulation cells); everything else on an
#: instrument — value(), snapshot(), percentile(), reset(), attach() —
#: takes the instrument lock to merge cells and has no place on the
#: reactor thread.
_METRIC_NONBLOCKING = frozenset({"inc", "add", "set", "observe"})


def _is_reactor_fn(fn: FunctionInfo) -> bool:
    return fn.reactor_only or fn.node.name in _REACTOR_CALLBACK_NAMES


def _selector_attrs(module: ModuleInfo, class_name: Optional[str]) -> Set[str]:
    if class_name is None:
        return set()
    cls = module.classes.get(class_name)
    if cls is None:
        return set()
    return {attr for attr, kind in cls.attr_kinds.items() if kind == "selector"}


def check_reactor_affinity(module: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []
    for fn in module.functions:
        if _is_reactor_fn(fn):
            for node in own_walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute):
                    kind = receiver_kind(node.func.value, fn, module)
                    if kind == "metric" and node.func.attr not in _METRIC_NONBLOCKING:
                        findings.append(
                            _finding(
                                "RL006",
                                module,
                                node,
                                fn.qualname,
                                f"metric aggregation '.{node.func.attr}()' takes "
                                "the instrument lock; only per-thread-cell "
                                "recording (inc/add/set/observe) is non-blocking "
                                "and allowed in @reactor_only code",
                            )
                        )
                        continue
                classified = classify_blocking_call(node, fn, module)
                if classified is None:
                    continue
                description, kind = classified
                if kind == "selector":
                    continue  # the event loop's own wait
                if kind == "socket" and isinstance(node.func, ast.Attribute):
                    # Readiness-driven I/O on the reactor's non-blocking
                    # sockets is the callback's job; *dialing* is not.
                    if node.func.attr not in {"connect", "create_connection"}:
                        continue
                findings.append(
                    _finding(
                        "RL006",
                        module,
                        node,
                        fn.qualname,
                        f"@reactor_only code must not block: {description} "
                        "would stall the event loop for every consumer in "
                        "the process",
                    )
                )
        else:
            selector_attrs = _selector_attrs(module, fn.class_name)
            if not selector_attrs or fn.node.name in {"__init__", "__del__"}:
                continue
            for node in own_walk(fn.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in selector_attrs
                ):
                    findings.append(
                        _finding(
                            "RL006",
                            module,
                            node,
                            fn.qualname,
                            f"selector state 'self.{node.attr}' touched outside "
                            "@reactor_only code; selectors are confined to the "
                            "reactor thread",
                        )
                    )
    return findings
