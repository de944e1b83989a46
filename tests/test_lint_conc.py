"""Concurrency model extraction and the CONC01–CONC04 rules.

Synthetic modules live under ``repro/...`` paths (a tmp-dir ``repro``
tree is *not* a test path), mirroring test_lint_effects.py; the seeded
defects in :class:`TestSeededDefects` drive each rule through the full
``lint_paths`` pipeline and assert the spawn-to-access chain survives to
the finding text.
"""

import ast
import textwrap

from repro.lint.base import parse_suppressions
from repro.lint.project import ProjectModel, extract_summary
from repro.lint.project.concurrency import concurrent_roots, qualify_lock
from repro.lint.project.effects import (
    GUARDED_WRITE, LOCK, SHARED_WRITE, THREAD, extract_module_effects,
    is_lock_name)
from repro.lint.project.source import read_pragmas
from repro.lint.runner import lint_paths, run_project_rules


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def effects_of(path, source):
    source = textwrap.dedent(source)
    return extract_module_effects(path, source, ast.parse(source))


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


def kinds_of(module_effects, func_name):
    for info in module_effects.functions:
        if info.name == func_name:
            return {effect.kind for effect in info.effects}
    return set()


class TestConcurrencyExtraction:
    def test_thread_and_task_spawn_sites(self):
        effects = effects_of("repro/obs/daemon.py", """
            import asyncio, threading

            def start(loop):
                thread = threading.Thread(target=_watch)
                thread.start()
                loop.create_task(_poll())

            def _watch():
                pass

            async def _poll():
                pass
        """)
        sites = {(s.kind, s.api, s.worker_name) for s in effects.spawn_sites}
        assert ("thread", "threading.Thread", "_watch") in sites
        assert ("task", "loop.create_task", "_poll") in sites
        assert THREAD in kinds_of(effects, "start")

    def test_lock_globals_and_guarded_bindings(self):
        effects = effects_of("repro/obs/shared.py", """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table = {}  # mapglint: guarded-by=self._lock
        """)
        assert effects.lock_globals == frozenset({"_LOCK"})
        bound = {(b.symbol, b.lock, b.scope)
                 for b in effects.guarded_bindings}
        assert ("_STATE", "_LOCK", "global") in bound
        assert ("_table", "self._lock", "attr") in bound

    def test_guarded_write_carries_locks_held(self):
        effects = effects_of("repro/obs/shared.py", """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def locked(key):
                with _LOCK:
                    _STATE[key] = 1

            def bare(key):
                _STATE[key] = 1
        """)
        (locked,) = [e for info in effects.functions
                     if info.name == "locked"
                     for e in info.effects if e.kind == GUARDED_WRITE]
        assert locked.locks_held == ("_LOCK",)
        (bare,) = [e for info in effects.functions
                   if info.name == "bare"
                   for e in info.effects if e.kind == GUARDED_WRITE]
        assert bare.locks_held == ()

    def test_init_is_exempt_from_guarded_writes(self):
        effects = effects_of("repro/obs/shared.py", """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table = {}  # mapglint: guarded-by=self._lock

                def put(self, key):
                    self._table[key] = 1
        """)
        assert GUARDED_WRITE not in kinds_of(effects, "__init__")
        assert GUARDED_WRITE in kinds_of(effects, "put")

    def test_shared_attr_write_detected(self):
        effects = effects_of("repro/sim/shared.py", """
            class Model:
                cache = {}

                def remember(self, key, value):
                    Model.cache[key] = value

                def remember_via_method(self, key):
                    self.cache.setdefault(key, [])
        """)
        assert SHARED_WRITE in kinds_of(effects, "remember")
        assert SHARED_WRITE in kinds_of(effects, "remember_via_method")

    def test_lock_ops_record_structure(self):
        effects = effects_of("repro/obs/locks.py", """
            def discipline(a_lock, b_lock, flag):
                a_lock.acquire()
                try:
                    pass
                finally:
                    a_lock.release()
                with a_lock:
                    with b_lock:
                        pass
                if flag:
                    b_lock.release()
        """)
        ops = {(op.op, op.lock, op.conditional, op.in_finally,
                op.held_before) for op in effects.lock_ops}
        assert ("acquire", "a_lock", False, False, ()) in ops
        assert ("release", "a_lock", False, True, ()) in ops
        assert ("with", "b_lock", False, False, ("a_lock",)) in ops
        assert ("release", "b_lock", True, False, ()) in ops

    def test_file_writes_and_replace_in_function(self):
        effects = effects_of("repro/exec/store.py", """
            import os

            def torn(entry_path, payload):
                with open(entry_path, "w") as handle:
                    handle.write(payload)

            def atomic(entry_path, payload):
                tmp = entry_path + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, entry_path)

            def reader(entry_path):
                with open(entry_path) as handle:
                    return handle.read()
        """)
        writes = {(w.path_repr, w.replace_in_function)
                  for w in effects.file_writes}
        assert ("entry_path", False) in writes
        assert ("tmp", True) in writes
        assert len(writes) == 2  # read-mode opens are not write sites

    def test_pool_submission_records_locks_held(self):
        effects = effects_of("repro/exec/launcher.py", """
            def fan_out(pool, items, state_lock):
                with state_lock:
                    return pool.map(_worker, items)

            def _worker(item):
                return item
        """)
        (submission,) = effects.pool_submissions
        assert submission.locks_held == ("state_lock",)

    def test_lock_name_heuristic(self):
        assert is_lock_name("self._lock")
        assert is_lock_name("_CACHE_MUTEX")
        assert is_lock_name("state_cond")
        assert is_lock_name("sem")
        assert not is_lock_name("self.blocked_cycles")
        assert not is_lock_name("clock")  # a clock is not a lock

    def test_guarded_pragma_parsing(self):
        pragmas = read_pragmas(
            "X = {}  # mapglint: guarded-by=_LOCK\n"
            "Y = {}\n"
            "Z = {}  # mapglint: guarded-by=self._lock\n")
        assert pragmas.guarded_by == {1: "_LOCK", 3: "self._lock"}

    def test_concurrent_roots_resolve_workers(self):
        model = ProjectModel([summarize("repro/obs/daemon.py", """
            import threading

            def start():
                threading.Thread(target=_watch).start()

            def _watch():
                pass

            def fan_out(pool, items):
                return pool.map(_cell, items)

            def _cell(item):
                return item
        """)])
        roots = {(r.kind, r.worker_name) for r in concurrent_roots(model)}
        assert roots == {("thread", "_watch"), ("pool", "_cell")}

    def test_lock_identity_qualification(self):
        # self-locks are per-class, module locks per-module, parameters
        # per-function — unrelated locks sharing a spelling never alias.
        a = qualify_lock("repro/a.py", "repro/a.py::Alpha.step",
                         "self._lock")
        b = qualify_lock("repro/a.py", "repro/a.py::Beta.step",
                         "self._lock")
        assert a != b
        m1 = qualify_lock("repro/a.py", "repro/a.py::one", "_LOCK",
                          module_locks=frozenset({"_LOCK"}))
        m2 = qualify_lock("repro/a.py", "repro/a.py::two", "_LOCK",
                          module_locks=frozenset({"_LOCK"}))
        assert m1 == m2
        p1 = qualify_lock("repro/a.py", "repro/a.py::one", "a_lock")
        p2 = qualify_lock("repro/a.py", "repro/a.py::two", "a_lock")
        assert p1 != p2


class TestSharedStateRace:
    def test_guarded_global_write_without_lock_fires(self):
        findings = findings_for({"repro/obs/state.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                _STATE[key] = 1
        """}, "CONC01")
        (finding,) = findings
        assert finding.rule_id == "CONC01"
        assert "guarded-by" in finding.message
        assert "_LOCK" in finding.message

    def test_guarded_write_with_binding_lock_is_silent(self):
        findings = findings_for({"repro/obs/state.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                with _LOCK:
                    _STATE[key] = 1
        """}, "CONC01")
        assert findings == []

    def test_guarded_attr_write_without_lock_fires(self):
        findings = findings_for({"repro/obs/registry.py": """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._metrics = {}  # mapglint: guarded-by=self._lock

                def put(self, name, metric):
                    self._metrics[name] = metric
        """}, "CONC01")
        (finding,) = findings
        assert "_metrics" in finding.message
        assert "self._lock" in finding.message

    def test_thread_reachable_global_write_fires_with_chain(self):
        findings = findings_for({"repro/obs/daemon.py": """
            import threading

            _TICKS = {}

            def start():
                threading.Thread(target=_watch).start()

            def _watch():
                _step()

            def _step():
                _TICKS["n"] = 1
        """}, "CONC01")
        (finding,) = findings
        assert "_watch -> _step" in finding.message
        assert "threading.Thread" in finding.message

    def test_thread_reachable_write_under_lock_is_silent(self):
        findings = findings_for({"repro/obs/daemon.py": """
            import threading

            _LOCK = threading.Lock()
            _TICKS = {}

            def start():
                threading.Thread(target=_watch).start()

            def _watch():
                with _LOCK:
                    _TICKS["n"] = 1
        """}, "CONC01")
        assert findings == []

    def test_pool_reachable_shared_attr_write_fires(self):
        findings = findings_for({"repro/exec/launcher.py": """
            class Model:
                cache = {}

            def _worker(item):
                Model.cache[item] = item
                return item

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC01")
        assert any("cache" in f.message for f in findings)

    def test_pool_global_write_is_left_to_pure01(self):
        # One finding per defect: a pool worker's global write is already
        # a PURE01 error, so CONC01 stays quiet on pool roots for it.
        findings = findings_for({"repro/exec/launcher.py": """
            _SEEN = []

            def _worker(item):
                _SEEN.append(item)
                return item

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC01")
        assert findings == []


class TestLockDiscipline:
    def test_acquire_without_release_fires(self):
        findings = findings_for({"repro/obs/locks.py": """
            def grab(state_lock):
                state_lock.acquire()
                return compute()
        """}, "CONC02")
        (finding,) = findings
        assert "no matching release" in finding.message

    def test_acquire_with_finally_release_is_silent(self):
        findings = findings_for({"repro/obs/locks.py": """
            def grab(state_lock):
                state_lock.acquire()
                try:
                    return compute()
                finally:
                    state_lock.release()
        """}, "CONC02")
        assert findings == []

    def test_release_outside_finally_fires(self):
        findings = findings_for({"repro/obs/locks.py": """
            def grab(state_lock):
                state_lock.acquire()
                value = compute()
                state_lock.release()
                return value
        """}, "CONC02")
        (finding,) = findings
        assert "not inside a finally" in finding.message

    def test_conditional_release_fires(self):
        findings = findings_for({"repro/obs/locks.py": """
            def grab(state_lock, flag):
                state_lock.acquire()
                try:
                    return compute()
                finally:
                    if flag:
                        state_lock.release()
        """}, "CONC02")
        (finding,) = findings
        assert "under a branch" in finding.message

    def test_with_blocks_are_silent(self):
        findings = findings_for({"repro/obs/locks.py": """
            def grab(state_lock):
                with state_lock:
                    return compute()
        """}, "CONC02")
        assert findings == []

    def test_inconsistent_module_lock_order_fires(self):
        findings = findings_for({"repro/obs/locks.py": """
            import threading

            _A_LOCK = threading.Lock()
            _B_LOCK = threading.Lock()

            def one():
                with _A_LOCK:
                    with _B_LOCK:
                        pass

            def two():
                with _B_LOCK:
                    with _A_LOCK:
                        pass
        """}, "CONC02")
        (finding,) = findings
        assert "inconsistent lock order" in finding.message
        assert "opposite order" in finding.message

    def test_consistent_order_is_silent(self):
        findings = findings_for({"repro/obs/locks.py": """
            import threading

            _A_LOCK = threading.Lock()
            _B_LOCK = threading.Lock()

            def one():
                with _A_LOCK:
                    with _B_LOCK:
                        pass

            def two():
                with _A_LOCK:
                    with _B_LOCK:
                        pass
        """}, "CONC02")
        assert findings == []

    def test_parameter_locks_never_alias_across_functions(self):
        # Two different parameter locks that happen to share spellings are
        # not provably the same object; the order check must not guess.
        findings = findings_for({"repro/obs/locks.py": """
            def one(a_lock, b_lock):
                with a_lock:
                    with b_lock:
                        pass

            def two(a_lock, b_lock):
                with b_lock:
                    with a_lock:
                        pass
        """}, "CONC02")
        assert findings == []


class TestSpawnHygiene:
    def test_thread_spawn_in_pool_worker_fires(self):
        findings = findings_for({"repro/exec/launcher.py": """
            import threading

            def _worker(item):
                threading.Thread(target=_task).start()
                return item

            def _task():
                pass

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC03")
        (finding,) = findings
        assert "spawns a thread" in finding.message
        assert "_worker" in finding.message

    def test_module_lock_in_pool_worker_fires(self):
        findings = findings_for({"repro/exec/launcher.py": """
            import threading

            _LOCK = threading.Lock()

            def _worker(item):
                with _LOCK:
                    return item

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC03")
        (finding,) = findings
        assert "synchronizes against nobody" in finding.message

    def test_submission_under_held_lock_fires(self):
        findings = findings_for({"repro/exec/launcher.py": """
            def fan_out(pool, items, state_lock):
                with state_lock:
                    return pool.map(_worker, items)

            def _worker(item):
                return item
        """}, "CONC03")
        (finding,) = findings
        assert "while holding" in finding.message
        assert "state_lock" in finding.message

    def test_clean_worker_is_silent(self):
        findings = findings_for({"repro/exec/launcher.py": """
            def _worker(item):
                return item * 2

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC03")
        assert findings == []


class TestAtomicPersistence:
    def test_in_place_cache_write_fires(self):
        findings = findings_for({"repro/exec/store.py": """
            def save(entry_path, payload):
                with open(entry_path, "w") as handle:
                    handle.write(payload)
        """}, "CONC04")
        (finding,) = findings
        assert "os.replace" in finding.message

    def test_temp_file_plus_replace_is_silent(self):
        findings = findings_for({"repro/exec/store.py": """
            import os

            def save(entry_path, payload):
                tmp = entry_path + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, entry_path)
        """}, "CONC04")
        assert findings == []

    def test_non_cache_paths_are_silent(self):
        findings = findings_for({"repro/obs/report.py": """
            def dump(report_path, payload):
                with open(report_path, "w") as handle:
                    handle.write(payload)
        """}, "CONC04")
        assert findings == []

    def test_cache_write_with_replace_in_function_is_silent(self):
        findings = findings_for({"repro/exec/store.py": """
            import os

            def save(cache_dir, key, payload):
                staging = cache_dir + "/staging"
                with open(staging, "w") as handle:
                    handle.write(payload)
                os.replace(staging, cache_dir + "/" + key)
        """}, "CONC04")
        assert findings == []


class TestSuppressionAndScope:
    def test_per_line_disable_suppresses_conc01(self):
        findings = findings_for({"repro/obs/state.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                _STATE[key] = 1  # mapglint: disable=CONC01
        """}, "CONC01")
        assert findings == []

    def test_test_paths_are_out_of_scope(self):
        findings = findings_for({"tests/test_something.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                _STATE[key] = 1
        """}, "CONC01")
        assert findings == []


class TestSeededDefects:
    """Full-pipeline seeded defects, one per CONC rule (UNIT02-pattern)."""

    def _tree(self, tmp_path, rel, body):
        target = tmp_path
        for part in rel.split("/"):
            target = target / part
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
        return target

    def test_seeded_unlocked_write_under_thread_caught(self, tmp_path):
        self._tree(tmp_path, "repro/obs/daemon.py", """
            import threading

            _EVENTS = []

            def start_watcher():
                thread = threading.Thread(target=_watch)
                thread.start()
                return thread

            def _watch():
                _EVENTS.append("tick")
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["CONC01"])
        (finding,) = report.findings
        assert finding.rule_id == "CONC01"
        # The spawn-to-access chain names the real path to the write.
        assert "_watch" in finding.message
        assert "threading.Thread" in finding.line_text

    def test_seeded_unstructured_acquire_caught(self, tmp_path):
        self._tree(tmp_path, "repro/obs/daemon.py", """
            import threading

            _LOCK = threading.Lock()

            def enter():
                _LOCK.acquire()
                return True
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["CONC02"])
        (finding,) = report.findings
        assert finding.rule_id == "CONC02"
        assert "with _LOCK:" in finding.message

    def test_seeded_thread_spawning_pool_payload_caught(self, tmp_path):
        self._tree(tmp_path, "repro/exec/launcher.py", """
            import threading

            def _cell(item):
                helper = threading.Thread(target=_flush)
                helper.start()
                return item

            def _flush():
                pass

            def fan_out(pool, items):
                return pool.map(_cell, items)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["CONC03"])
        (finding,) = report.findings
        assert finding.rule_id == "CONC03"
        assert "_cell" in finding.message
        assert "pool.map" in finding.line_text

    def test_seeded_torn_cache_write_caught(self, tmp_path):
        self._tree(tmp_path, "repro/exec/store.py", """
            import json

            def persist(cache_entry, payload):
                with open(cache_entry, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["CONC04"])
        (finding,) = report.findings
        assert finding.rule_id == "CONC04"
        assert "os.replace" in finding.message
