"""Tests for ``repro.analysis`` (reprolint), the concurrency-invariant linter.

Layout mirrors the analyzer itself:

* a fixture corpus of small good/bad modules per check (RL001–RL007), run
  through :func:`repro.analysis.analyze_source`;
* finding-identity tests (ids stable under reformatting, occurrence
  numbering for duplicate sites);
* baseline round-trip, inline-pragma suppression, JSON output schema and
  exit codes through the real CLI;
* a meta-test that the committed ``src/`` tree is clean — the same gate CI
  runs via ``python -m repro.analysis src``;
* regression tests for real defects the first analyzer run found in ``src/``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.baseline import load_baseline, partition, write_baseline
from repro.analysis.cli import main as reprolint_main
from repro.analysis.driver import CHECKS
from repro.analysis.findings import Finding

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def findings_for(source: str, *checks: str, path: str = "snippet.py"):
    return analyze_source(textwrap.dedent(source), path=path, checks=list(checks) or None)


def rules_of(findings):
    return sorted(f.rule for f in findings)


# ---------------------------------------------------------------------------
# RL001 — guarded attributes
# ---------------------------------------------------------------------------


class TestGuardedAttributes:
    def test_flags_unlocked_read_of_guarded_attr(self):
        findings = findings_for(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = {}  #: guarded by _lock

                def size(self):
                    return len(self._records)
            """,
            "RL001",
        )
        assert rules_of(findings) == ["RL001"]
        assert "self._records" in findings[0].message
        assert findings[0].qualname == "Pool.size"

    def test_flags_unlocked_module_global(self):
        findings = findings_for(
            """
            import threading

            _REG_LOCK = threading.Lock()
            _REGISTRY = {}  #: guarded by _REG_LOCK

            def lookup(name):
                return _REGISTRY.get(name)
            """,
            "RL001",
        )
        assert rules_of(findings) == ["RL001"]
        assert "_REGISTRY" in findings[0].message

    def test_access_under_lock_is_clean(self):
        findings = findings_for(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = {}  #: guarded by _lock

                def size(self):
                    with self._lock:
                        return len(self._records)
            """,
            "RL001",
        )
        assert findings == []

    def test_locked_suffix_helpers_and_init_are_exempt(self):
        # ``*_locked`` is the caller-holds-the-lock convention; __init__ runs
        # single-threaded.  Neither may be flagged.
        findings = findings_for(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = {}  #: guarded by _lock
                    self._records["seed"] = 1

                def _record_for_locked(self, key):
                    return self._records[key]
            """,
            "RL001",
        )
        assert findings == []

    def test_global_access_under_its_lock_is_clean(self):
        findings = findings_for(
            """
            import threading

            _REG_LOCK = threading.Lock()
            _REGISTRY = {}  #: guarded by _REG_LOCK

            def register(name, value):
                with _REG_LOCK:
                    _REGISTRY[name] = value
            """,
            "RL001",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL002 — blocking under a held lock
# ---------------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_flags_sleep_under_lock(self):
        findings = findings_for(
            """
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def spin(self):
                    with self._lock:
                        time.sleep(0.1)
            """,
            "RL002",
        )
        assert rules_of(findings) == ["RL002"]
        assert "time.sleep()" in findings[0].message

    def test_flags_queue_get_under_lock(self):
        findings = findings_for(
            """
            import queue
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inbox = queue.Queue()

                def drain(self):
                    with self._lock:
                        return self._inbox.get()
            """,
            "RL002",
        )
        assert rules_of(findings) == ["RL002"]
        assert "Queue.get()" in findings[0].message

    def test_nonblocking_queue_get_is_clean(self):
        findings = findings_for(
            """
            import queue
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inbox = queue.Queue()

                def drain(self):
                    with self._lock:
                        return self._inbox.get(block=False)
            """,
            "RL002",
        )
        assert findings == []

    def test_condition_wait_on_own_lock_is_clean(self):
        # cond.wait() releases the condition's own lock — that is the point
        # of a condition variable, not a lock-held blocking call.
        findings = findings_for(
            """
            import threading

            class Mailbox:
                def __init__(self):
                    self._cond = threading.Condition()

                def take(self):
                    with self._cond:
                        self._cond.wait()
            """,
            "RL002",
        )
        assert findings == []

    def test_condition_wait_with_second_lock_held_is_flagged(self):
        findings = findings_for(
            """
            import threading

            class Mailbox:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()

                def take(self):
                    with self._lock:
                        with self._cond:
                            self._cond.wait()
            """,
            "RL002",
        )
        assert rules_of(findings) == ["RL002"]


# ---------------------------------------------------------------------------
# RL003 — lock-order cycles
# ---------------------------------------------------------------------------


class TestLockOrderCycles:
    def test_flags_direct_ab_ba_cycle(self):
        findings = findings_for(
            """
            import threading

            _LOCK_A = threading.Lock()
            _LOCK_B = threading.Lock()

            def ab():
                with _LOCK_A:
                    with _LOCK_B:
                        pass

            def ba():
                with _LOCK_B:
                    with _LOCK_A:
                        pass
            """,
            "RL003",
        )
        assert rules_of(findings) == ["RL003"]
        assert "_LOCK_A" in findings[0].message and "_LOCK_B" in findings[0].message

    def test_flags_interprocedural_cycle(self):
        # Neither function nests two ``with`` blocks; the cycle only exists
        # through the call graph.
        findings = findings_for(
            """
            import threading

            _LOCK_A = threading.Lock()
            _LOCK_B = threading.Lock()

            def ab():
                with _LOCK_A:
                    grab_b()

            def grab_b():
                with _LOCK_B:
                    pass

            def ba():
                with _LOCK_B:
                    grab_a()

            def grab_a():
                with _LOCK_A:
                    pass
            """,
            "RL003",
        )
        assert rules_of(findings) == ["RL003"]

    def test_consistent_order_is_clean(self):
        findings = findings_for(
            """
            import threading

            _LOCK_A = threading.Lock()
            _LOCK_B = threading.Lock()

            def first():
                with _LOCK_A:
                    with _LOCK_B:
                        pass

            def second():
                with _LOCK_A:
                    with _LOCK_B:
                        pass
            """,
            "RL003",
        )
        assert findings == []

    def test_reentrant_self_acquisition_is_clean(self):
        # An RLock re-acquired through a helper is legal reentrancy, not a
        # deadlock; only plain-Lock self-edges deadlock.
        findings = findings_for(
            """
            import threading

            _LOCK = threading.RLock()

            def outer():
                with _LOCK:
                    inner()

            def inner():
                with _LOCK:
                    pass
            """,
            "RL003",
        )
        assert findings == []

    def test_plain_lock_self_acquisition_is_flagged(self):
        findings = findings_for(
            """
            import threading

            _LOCK = threading.Lock()

            def outer():
                with _LOCK:
                    inner()

            def inner():
                with _LOCK:
                    pass
            """,
            "RL003",
        )
        assert rules_of(findings) == ["RL003"]


# ---------------------------------------------------------------------------
# RL004 — hold pairing
# ---------------------------------------------------------------------------


class TestHoldPairing:
    def test_flags_normal_path_release(self):
        findings = findings_for(
            """
            class Publisher:
                def publish(self, pool, tensor):
                    handle = pool.retain(tensor)
                    self.send(handle)
                    pool.release(handle)
            """,
            "RL004",
        )
        assert rules_of(findings) == ["RL004"]
        assert "try/finally" in findings[0].message

    def test_flags_attach_close_on_normal_path(self):
        findings = findings_for(
            """
            def read(pool, name):
                segment = pool.attach(name)
                data = segment.read()
                segment.close()
                return data
            """,
            "RL004",
        )
        assert rules_of(findings) == ["RL004"]

    def test_release_in_finally_is_clean(self):
        findings = findings_for(
            """
            def read(pool, name):
                segment = pool.attach(name)
                try:
                    return segment.read()
                finally:
                    segment.close()
            """,
            "RL004",
        )
        assert findings == []

    def test_context_manager_is_clean(self):
        findings = findings_for(
            """
            def read(pool, name):
                with pool.attach(name) as segment:
                    return segment.read()
            """,
            "RL004",
        )
        assert findings == []

    def test_acquire_only_ownership_transfer_is_clean(self):
        # The producer retains; the consumer-ack path releases much later in
        # another function.  Acquire-without-release is a transfer, not a leak.
        findings = findings_for(
            """
            class Publisher:
                def publish(self, pool, tensor):
                    handle = pool.retain(tensor)
                    self.outbox.append(handle)
            """,
            "RL004",
        )
        assert findings == []

    def test_release_only_in_except_is_clean(self):
        # Compensation pattern: keep the hold on success, give it back on
        # failure.
        findings = findings_for(
            """
            class Publisher:
                def publish(self, pool, tensor):
                    handle = pool.retain(tensor)
                    try:
                        self.send(handle)
                    except OSError:
                        pool.release(handle)
                        raise
            """,
            "RL004",
        )
        assert findings == []


    def test_reserved_segment_must_be_returned_when_the_fill_fails(self):
        # reserve -> fill -> commit: a segment handed back only on the
        # straight-line path leaks when the fill raises.
        leaky = """
            class Pool:
                def stage(self, nbytes, fill):
                    segment = self._acquire_segment(nbytes)
                    if not fill(segment):
                        self._pool_segment_locked(segment)
                    return segment
            """
        assert rules_of(findings_for(leaky, "RL004")) == ["RL004"]
        compensated = """
            class Pool:
                def stage(self, nbytes, fill):
                    segment = self._acquire_segment(nbytes)
                    try:
                        fill(segment)
                    except BaseException:
                        self._pool_segment_locked(segment)
                        raise
                    self._commit_segment(segment)
            """
        assert findings_for(compensated, "RL004") == []


# ---------------------------------------------------------------------------
# RL005 — thread hygiene
# ---------------------------------------------------------------------------


class TestThreadHygiene:
    def test_flags_bare_thread(self):
        findings = findings_for(
            """
            import threading

            def start(target):
                thread = threading.Thread(target=target)
                thread.start()
            """,
            "RL005",
        )
        assert rules_of(findings) == ["RL005"]
        assert "name=" in findings[0].message
        assert "daemon=" in findings[0].message

    def test_flags_wrong_prefix_and_missing_daemon(self):
        findings = findings_for(
            """
            import threading

            def start(target):
                thread = threading.Thread(target=target, name="worker-1")
                thread.start()
            """,
            "RL005",
        )
        assert rules_of(findings) == ["RL005"]
        assert 'start with "repro-"' in findings[0].message

    def test_compliant_thread_is_clean(self):
        findings = findings_for(
            """
            import threading

            def start(target):
                thread = threading.Thread(
                    target=target, name="repro-pump", daemon=True
                )
                thread.start()
            """,
            "RL005",
        )
        assert findings == []

    def test_fstring_repro_prefix_is_clean(self):
        findings = findings_for(
            """
            import threading

            def start(target, index):
                thread = threading.Thread(
                    target=target, name=f"repro-worker-{index}", daemon=False
                )
                thread.start()
            """,
            "RL005",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL006 — reactor affinity
# ---------------------------------------------------------------------------


class TestReactorAffinity:
    def test_flags_sleep_in_reactor_only_code(self):
        findings = findings_for(
            """
            import time

            from repro.messaging.reactor import reactor_only

            class Loop:
                @reactor_only
                def _pump(self):
                    time.sleep(0.1)
            """,
            "RL006",
        )
        assert rules_of(findings) == ["RL006"]
        assert "stall the event loop" in findings[0].message

    def test_flags_dialing_in_on_readable_callback(self):
        # ``_on_readable``-style callbacks are reactor-affine even without
        # the decorator, and dialing (unlike readiness-driven recv) blocks.
        findings = findings_for(
            """
            import socket

            class Conn:
                def _on_readable(self):
                    peer = socket.create_connection(("backup", 9999))
                    return peer
            """,
            "RL006",
        )
        assert rules_of(findings) == ["RL006"]

    def test_flags_selector_touch_outside_reactor_code(self):
        findings = findings_for(
            """
            import selectors

            class Loop:
                def __init__(self):
                    self._selector = selectors.DefaultSelector()

                def poke(self, sock):
                    self._selector.register(sock, selectors.EVENT_READ)
            """,
            "RL006",
        )
        assert rules_of(findings) == ["RL006"]
        assert "selector state" in findings[0].message

    def test_reactor_loop_shape_is_clean(self):
        # The canonical loop: selector.select() and recv on the watched
        # socket are the reactor's own job, and __init__ may build the
        # selector.
        findings = findings_for(
            """
            import selectors

            from repro.messaging.reactor import reactor_only

            class Loop:
                def __init__(self, sock):
                    self._selector = selectors.DefaultSelector()
                    self._sock = sock

                @reactor_only
                def _run(self):
                    while True:
                        self._selector.select(0.1)

                def _on_readable(self):
                    return self._sock.recv(4096)
            """,
            "RL006",
        )
        assert findings == []

    def test_undecorated_blocking_helper_is_clean(self):
        # Blocking is fine off the reactor thread; RL006 only polices
        # reactor-affine functions.
        findings = findings_for(
            """
            import time

            class Helper:
                def wait_a_bit(self):
                    time.sleep(0.1)
            """,
            "RL006",
        )
        assert findings == []

    def test_metric_recording_in_reactor_code_is_clean(self):
        # Module-level instrument handles record through per-thread cells:
        # inc/observe never block, so the reactor thread may call them.
        findings = findings_for(
            """
            from repro.obs.metrics import counter, histogram

            from repro.messaging.reactor import reactor_only

            _DISPATCHES = counter("repro.reactor.dispatches")
            _LATENCY = histogram("repro.reactor.dispatch_seconds")

            class Loop:
                @reactor_only
                def _pump(self):
                    _DISPATCHES.inc()
                    _LATENCY.observe(0.001)
            """,
            "RL006",
        )
        assert findings == []

    def test_flags_metric_aggregation_in_reactor_code(self):
        # value()/snapshot() merge the per-thread cells under the instrument
        # lock — that side of a metric has no place on the reactor thread.
        findings = findings_for(
            """
            from repro.obs.metrics import counter

            from repro.messaging.reactor import reactor_only

            _DISPATCHES = counter("repro.reactor.dispatches")

            class Loop:
                @reactor_only
                def _pump(self):
                    return _DISPATCHES.value()
            """,
            "RL006",
        )
        assert rules_of(findings) == ["RL006"]
        assert "metric aggregation" in findings[0].message

    def test_flags_histogram_percentile_on_instance_attr(self):
        # Instance-held instruments resolve through the class symbol table
        # (annotation or constructor assignment), same as locks and queues.
        findings = findings_for(
            """
            from repro.obs.metrics import Histogram

            from repro.messaging.reactor import reactor_only

            class Loop:
                def __init__(self):
                    self._latency = Histogram("repro.reactor.dispatch_seconds")

                @reactor_only
                def _pump(self):
                    self._latency.observe(0.001)
                    return self._latency.percentile(0.99)
            """,
            "RL006",
        )
        assert rules_of(findings) == ["RL006"]
        assert ".percentile()" in findings[0].message

    def test_metric_aggregation_off_reactor_is_clean(self):
        # Aggregation is fine anywhere else; only reactor-affine functions
        # are held to the non-blocking recording set.
        findings = findings_for(
            """
            from repro.obs.metrics import counter

            _DISPATCHES = counter("repro.reactor.dispatches")

            class Reporter:
                def snapshot(self):
                    return _DISPATCHES.value()
            """,
            "RL006",
        )
        assert findings == []

    # The two halves of a delivery: ``deliver`` runs on the publisher's
    # thread inside the inbox's sink lock, the handler on the loop.  A blocking
    # put in the first parks a producer mid-publish and every deliverer queued
    # behind it; in the second it parks every socket and timer in the process.
    DELIVERY_PATH = """
        import queue
        import threading

        from repro.messaging.reactor import reactor_only

        class Inbox:
            def __init__(self, sink):
                self._sink_lock = threading.Lock()
                self._backlog = queue.Queue()
                self._sink = sink

            def deliver(self, message):
                with self._sink_lock:
                    if self._sink is not None:
                        self._sink(message)
                        return
                    self._backlog.{put}

        class Consumer:
            def __init__(self):
                self._mailbox = queue.Queue(maxsize=4096)

            @reactor_only
            def _on_message(self, message):
                self._mailbox.{put}
        """

    def test_flags_a_blocking_put_on_the_delivery_path(self):
        findings = findings_for(
            self.DELIVERY_PATH.format(put="put(message)"), "RL002", "RL006"
        )
        assert rules_of(findings) == ["RL002", "RL006"]
        assert {f.qualname for f in findings} == {"Inbox.deliver", "Consumer._on_message"}
        assert all("Queue.put()" in f.message for f in findings)

    def test_nonblocking_put_on_the_delivery_path_is_clean(self):
        findings = findings_for(
            self.DELIVERY_PATH.format(put="put(message, block=False)"), "RL002", "RL006"
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL007 — check-then-act
# ---------------------------------------------------------------------------


class TestCheckThenAct:
    def test_flags_membership_test_then_mutation(self):
        findings = findings_for(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def put(self, key, value):
                    if key not in self._cache:
                        self._cache[key] = value
            """,
            "RL007",
        )
        assert rules_of(findings) == ["RL007"]
        assert "not atomic" in findings[0].message

    def test_flags_module_global_check_then_act(self):
        findings = findings_for(
            """
            import threading

            _LOCK = threading.Lock()
            _SEEN = set()

            def mark(item):
                if item not in _SEEN:
                    _SEEN.add(item)
            """,
            "RL007",
        )
        assert rules_of(findings) == ["RL007"]

    def test_check_then_act_under_lock_is_clean(self):
        findings = findings_for(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def put(self, key, value):
                    with self._lock:
                        if key not in self._cache:
                            self._cache[key] = value
            """,
            "RL007",
        )
        assert findings == []

    def test_single_threaded_class_is_clean(self):
        # No lock anywhere in the class: nothing marks it as shared between
        # threads, so check-then-act is ordinary (and correct) code.
        findings = findings_for(
            """
            class Memo:
                def __init__(self):
                    self._cache = {}

                def put(self, key, value):
                    if key not in self._cache:
                        self._cache[key] = value
            """,
            "RL007",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Finding identity
# ---------------------------------------------------------------------------

_RL005_SNIPPET = """
import threading

def start(target):
    return threading.Thread(target=target)
"""


class TestFindingIdentity:
    def test_ids_survive_unrelated_edits(self):
        before = findings_for(_RL005_SNIPPET, "RL005")
        shifted = "# a new leading comment\n\n" + textwrap.dedent(_RL005_SNIPPET)
        after = analyze_source(shifted, path="snippet.py", checks=["RL005"])
        assert [f.finding_id for f in before] == [f.finding_id for f in after]
        assert before[0].line != after[0].line  # the *line* did move

    def test_duplicate_sites_get_distinct_stable_ids(self):
        source = """
        import threading

        def start(target):
            first = threading.Thread(target=target)
            second = threading.Thread(target=target)
            return first, second
        """
        findings = findings_for(source, "RL005")
        assert len(findings) == 2
        assert findings[0].finding_id != findings[1].finding_id
        # Same ids again on a re-run: occurrence numbering is deterministic.
        again = findings_for(source, "RL005")
        assert [f.finding_id for f in findings] == [f.finding_id for f in again]

    def test_finding_id_shape(self):
        finding = findings_for(_RL005_SNIPPET, "RL005")[0]
        rule, path, qualname, fingerprint = finding.finding_id.split(":")
        assert rule == "RL005"
        assert path == "snippet.py"
        assert qualname == "start"
        assert len(fingerprint) == 12
        assert int(fingerprint, 16) >= 0  # hex


# ---------------------------------------------------------------------------
# Pragmas, baseline, CLI
# ---------------------------------------------------------------------------

_BAD_MODULE = """\
import threading


def start(target):
    return threading.Thread(target=target)
"""

_FIXED_MODULE = """\
import threading


def start(target):
    return threading.Thread(target=target, name="repro-pump", daemon=True)
"""


class TestPragmas:
    def test_inline_pragma_suppresses_the_finding(self):
        findings = findings_for(
            """
            import threading

            def start(target):
                return threading.Thread(target=target)  # reprolint: disable=RL005
            """,
            "RL005",
        )
        assert findings == []

    def test_pragma_is_rule_specific(self):
        findings = findings_for(
            """
            import threading

            def start(target):
                return threading.Thread(target=target)  # reprolint: disable=RL002
            """,
            "RL005",
        )
        assert rules_of(findings) == ["RL005"]


class TestBaseline:
    def test_round_trip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(_BAD_MODULE, encoding="utf-8")
        baseline = tmp_path / "reprolint.baseline"

        # First run: one unbaselined finding, exit 1.
        assert reprolint_main([str(bad)]) == 1

        # Adopt the current findings, then the same tree is green.
        assert reprolint_main([str(bad), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert baseline.is_file()
        assert reprolint_main([str(bad), "--baseline", str(baseline)]) == 0

        # Fix the code: still green, baseline entry now reported stale.
        bad.write_text(_FIXED_MODULE, encoding="utf-8")
        assert reprolint_main([str(bad), "--baseline", str(baseline)]) == 0

    def test_baseline_comments_and_partition(self, tmp_path):
        findings = analyze_source(_BAD_MODULE, path="bad.py", checks=["RL005"])
        baseline = tmp_path / "base.txt"
        write_baseline(baseline, findings)
        text = baseline.read_text(encoding="utf-8")
        assert text.startswith("# reprolint baseline")

        ids = load_baseline(baseline)
        assert ids == {f.finding_id for f in findings}

        new, baselined, stale = partition(findings, ids)
        assert new == [] and len(baselined) == len(findings) and stale == set()

        # A fixed tree leaves the id behind as stale.
        new, baselined, stale = partition([], ids)
        assert new == [] and baselined == [] and stale == ids

    def test_missing_baseline_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(_BAD_MODULE, encoding="utf-8")
        missing = tmp_path / "nope.baseline"
        assert reprolint_main([str(bad), "--baseline", str(missing)]) == 2


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(_FIXED_MODULE, encoding="utf-8")
        assert reprolint_main([str(clean)]) == 0

    def test_unknown_path_and_unknown_rule_are_usage_errors(self, tmp_path):
        assert reprolint_main([str(tmp_path / "missing_dir")]) == 2
        clean = tmp_path / "clean.py"
        clean.write_text(_FIXED_MODULE, encoding="utf-8")
        assert reprolint_main([str(clean), "--select", "RL999"]) == 2

    def test_select_narrows_checks(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(_BAD_MODULE, encoding="utf-8")
        assert reprolint_main([str(bad), "--select", "RL001"]) == 0
        assert reprolint_main([str(bad), "--select", "RL005"]) == 1

    def test_syntax_error_is_reported_not_raised(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        assert reprolint_main([str(broken)]) == 1
        assert "error:" in capsys.readouterr().out

    def test_list_checks_covers_all_rules(self, capsys):
        assert reprolint_main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for rule in CHECKS:
            assert rule in out

    def test_json_output_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(_BAD_MODULE, encoding="utf-8")
        assert reprolint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version",
            "files",
            "findings",
            "baselined",
            "stale_baseline",
            "suppressed",
            "errors",
        }
        assert payload["version"] == 1
        assert payload["files"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {
            "id",
            "rule",
            "path",
            "line",
            "qualname",
            "message",
            "source",
        }
        assert finding["rule"] == "RL005"
        assert finding["id"].startswith("RL005:")


# ---------------------------------------------------------------------------
# Meta: the committed tree is clean
# ---------------------------------------------------------------------------


@pytest.mark.analysis
class TestCommittedTreeIsClean:
    def test_src_has_no_findings(self):
        result = analyze_paths([str(SRC)])
        assert result.errors == []
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"reprolint findings in src/:\n{rendered}"

    def test_module_entry_point_is_clean(self):
        # The exact command CI runs; exercises __main__ + console wiring.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC)],
            cwd=str(REPO_ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


# ---------------------------------------------------------------------------
# Meta: nothing on the serving side wakes up to look
# ---------------------------------------------------------------------------

#: Calls that park the calling thread.  ``get``/``put``/``recv``/``receive``
#: count only with a ``timeout=`` keyword: positionally, ``dict.get(key, 0)``
#: and ``sock.recv(4096)`` look the same as a timeout and are not one.
_BLOCKING_METHODS = {"wait", "get", "put", "join", "recv", "receive", "sleep"}
_POSITIONAL_TIMEOUT = {"wait", "join", "sleep"}


def _is_number(node) -> bool:
    """A numeric literal, or ``min(<literal>, ...)`` — a deadline capped by a
    guess still wakes up on the guess."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "min":
        return any(_is_number(arg) for arg in node.args)
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def polling_waits(source: str, path: str = "snippet.py"):
    """``path:line`` of every blocking call inside a ``while`` loop whose
    timeout is a numeric literal: a wait that wakes up on a guess to look,
    instead of blocking on what it waits for until a named deadline."""
    found = []
    for loop in ast.walk(ast.parse(textwrap.dedent(source))):
        if not isinstance(loop, ast.While):
            continue
        for call in ast.walk(loop):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name not in _BLOCKING_METHODS:
                continue
            timeouts = [kw.value for kw in call.keywords if kw.arg == "timeout"]
            if name in _POSITIONAL_TIMEOUT:
                timeouts += call.args[:1]
            if any(_is_number(timeout) for timeout in timeouts):
                found.append(f"{path}:{call.lineno}")
    return sorted(set(found))


@pytest.mark.analysis
class TestNothingWakesUpToLook:
    def test_flags_a_timed_retry_loop(self):
        assert polling_waits(
            """
            def put(self, obj):
                while not self._stop.is_set():
                    try:
                        self._queue.put(obj, timeout=0.05)
                        return True
                    except queue.Full:
                        continue
            """
        ) == ["snippet.py:5"]

    def test_flags_positional_literals_capped_deadlines_and_sleep(self):
        found = polling_waits(
            """
            while not stop.wait(0.5):
                sweep()
            while thread.is_alive():
                thread.join(timeout=min(0.1, left))
                thread.join(0.1)
            while True:
                time.sleep(3600)
            """
        )
        assert found == ["snippet.py:2", "snippet.py:5", "snippet.py:6", "snippet.py:8"]

    def test_deadlines_and_lookups_are_clean(self):
        assert polling_waits(
            """
            while pending and time.monotonic() < deadline:
                message = inbox.receive(timeout=deadline - time.monotonic())
                epoch = body.get("admitted_epoch", 0)
                with wake:
                    wake.wait(timeout=wait_timeout)
            while waker.recv(4096):
                pass
            for _ in range(200):
                time.sleep(0.05)
            """
        ) == []

    def test_serving_side_has_no_polling_waits(self):
        found = []
        for package in ("core", "messaging", "broker"):
            for path in sorted((SRC / "repro" / package).rglob("*.py")):
                found += polling_waits(path.read_text(), str(path.relative_to(REPO_ROOT)))
        assert found == [], "blocking calls on a literal timeout inside a while loop:\n" + "\n".join(
            found
        )


# ---------------------------------------------------------------------------
# Meta: one reading per object
# ---------------------------------------------------------------------------

#: Method names that would give an object with ``metrics()`` a second reading.
_SECOND_READINGS = {"stats", "status"}


def second_readings(source: str, path: str = "snippet.py"):
    """``path:line Class`` of every class that defines ``metrics`` next to
    ``stats`` or ``status``: two dicts, two vocabularies, for one object."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "metrics" in methods and methods & _SECOND_READINGS:
            found.append(f"{path}:{node.lineno} {node.name}")
    return found


@pytest.mark.analysis
class TestOneReadingPerObject:
    def test_flags_metrics_beside_stats_or_status(self):
        assert second_readings(
            """
            class Producer:
                def metrics(self):
                    return {}

                def stats(self):
                    return {}

            class Session:
                @property
                def status(self):
                    return {}

                def metrics(self):
                    return {}

            class Cache:
                def stats(self):
                    return {}
            """
        ) == ["snippet.py:2 Producer", "snippet.py:9 Session"]

    def test_src_has_no_second_readings(self):
        found = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            found += second_readings(path.read_text(), str(path.relative_to(REPO_ROOT)))
        assert found == [], "classes with metrics() and stats()/status():\n" + "\n".join(found)


# ---------------------------------------------------------------------------
# Meta: the producer's protocol core does no I/O
# ---------------------------------------------------------------------------

#: What the sans-I/O core may not import: threads, clocks, sockets and queues,
#: the messaging layer and the shared-memory pool belong to its driver.
_IMPURE_MODULES = (
    "threading", "time", "socket", "select", "queue",
    "repro.messaging", "repro.tensor.shared_memory",
)


def _impure(module: str) -> bool:
    return any(module == bad or module.startswith(bad + ".") for bad in _IMPURE_MODULES)


def impure_imports(source: str):
    """Every module ``source`` imports that a sans-I/O core may not."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from repro import messaging`` imports repro.messaging as well.
            modules = [
                node.module if _impure(node.module) else f"{node.module}.{alias.name}"
                for alias in node.names
            ]
        else:
            continue
        found += dict.fromkeys(module for module in modules if _impure(module))
    return found


@pytest.mark.analysis
class TestProtocolCoreIsPure:
    def test_flags_threads_clocks_sockets_and_the_messaging_layer(self):
        assert impure_imports(
            """
            import json
            import time, socket
            from threading import Lock
            from repro import messaging
            from repro.messaging.message import Message, MessageKind
            from repro.tensor.shared_memory import SharedMemoryPool
            from repro.core.ack_ledger import AckLedger
            from timeit import default_timer
            """
        ) == [
            "time",
            "socket",
            "threading",
            "repro.messaging",
            "repro.messaging.message",
            "repro.tensor.shared_memory",
        ]

    def test_the_producer_protocol_core_imports_no_io(self):
        path = SRC / "repro" / "core" / "protocol.py"
        assert path.is_file(), "the producer's protocol core, core/protocol.py, is missing"
        assert impure_imports(path.read_text()) == []

    def test_the_consumer_protocol_core_imports_no_io(self):
        path = SRC / "repro" / "core" / "protocol.py"
        tree = ast.parse(path.read_text())
        classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        assert "ConsumerProtocol" in classes, "the consumer's protocol core left core/protocol.py"
        assert impure_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# Regressions: real defects the analyzer found in src/
# ---------------------------------------------------------------------------


class TestAnalyzerFoundDefects:
    def test_remove_mailbox_listener_is_idempotent(self):
        # RL007 on consumer._wakeups: membership-test-then-remove was a
        # TOCTOU window between the reactor thread and training threads; the
        # fix removes unconditionally and swallows the miss.
        from repro.core.consumer import TensorConsumer

        consumer = object.__new__(TensorConsumer)
        consumer._wakeups = []
        wakeup = object()
        consumer._add_mailbox_listener(wakeup)
        consumer._remove_mailbox_listener(wakeup)
        consumer._remove_mailbox_listener(wakeup)  # double removal: no raise
        assert consumer._wakeups == []

    def test_remove_mailbox_listener_survives_racing_removers(self):
        from repro.core.consumer import TensorConsumer

        consumer = object.__new__(TensorConsumer)
        consumer._wakeups = []
        wakeups = [object() for _ in range(500)]
        for wakeup in wakeups:
            consumer._add_mailbox_listener(wakeup)

        errors = []

        def strip():
            try:
                for wakeup in wakeups:
                    consumer._remove_mailbox_listener(wakeup)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=strip, name=f"repro-test-strip-{i}", daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        assert consumer._wakeups == []
