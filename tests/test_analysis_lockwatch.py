"""Lockwatch: inversion detection, hold accounting, and install() safety.

Every test uses a *private* ``LockWatch`` (locks built from primitives
captured at lockwatch import time) so deliberately-provoked inversions
stay invisible to a session-wide watch installed by ``--lockwatch``.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.lockwatch import InstrumentedLock, LockWatch


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def inversion_findings(watch: LockWatch):
    return [
        f for f in watch.findings() if f["kind"] == "lock-order-inversion"
    ]


# -- the core regression: A->B vs B->A across two threads ---------------------


def test_detects_lock_order_inversion_across_threads():
    watch = LockWatch()
    lock_a = watch.lock("a")
    lock_b = watch.lock("b")
    first_done = threading.Event()

    def forward():  # A then B
        with lock_a:
            with lock_b:
                pass
        first_done.set()

    def backward():  # B then A — opposite order, serialized so no deadlock
        first_done.wait(5)
        with lock_b:
            with lock_a:
                pass

    t1 = threading.Thread(target=forward, name="fwd")
    t2 = threading.Thread(target=backward, name="bwd")
    t1.start()
    t2.start()
    t1.join(5)
    t2.join(5)

    found = inversion_findings(watch)
    assert len(found) == 1
    cycle = found[0]["cycle"]
    assert cycle in ("a -> b -> a", "b -> a -> b")
    assert set(found[0]["threads"]) == {"fwd", "bwd"}
    # the verdict line CI greps must lead with the inversion count
    assert watch.render_report().startswith("lockwatch: 1 inversion(s)")


def test_consistent_order_is_clean():
    watch = LockWatch()
    lock_a = watch.lock("a")
    lock_b = watch.lock("b")

    def worker():
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)

    assert watch.findings() == []
    report = watch.report()
    assert report["edges"] == 1  # a->b recorded, no reverse edge
    assert report["counts"] == {}


def test_three_lock_cycle_detected():
    watch = LockWatch()
    locks = [watch.lock(name) for name in "abc"]
    order = [(0, 1), (1, 2), (2, 0)]  # a->b, b->c, c->a
    gate = threading.Event()
    gate.set()

    def take(first, second):
        with locks[first]:
            with locks[second]:
                pass

    for first, second in order:  # sequential: latent cycle, no deadlock
        thread = threading.Thread(target=take, args=(first, second))
        thread.start()
        thread.join(5)

    found = inversion_findings(watch)
    assert len(found) == 1
    assert len(found[0]["edges"]) == 3


# -- reentrancy and Condition integration -------------------------------------


def test_rlock_reentry_is_not_an_inversion():
    watch = LockWatch()
    rlock = watch.rlock("r")
    with rlock:
        with rlock:  # reentrant re-acquire: count bump, no self-edge
            pass
    assert watch.findings() == []
    assert watch.report()["edges"] == 0


def test_condition_wait_releases_the_hold():
    clock = FakeClock()
    watch = LockWatch(long_hold_threshold=1.0, clock=clock)
    lock = watch.lock("cond.lock")
    # drive the Condition protocol directly so the clock can advance at
    # the exact point wait() would be parked: between _release_save and
    # _acquire_restore the thread does NOT hold the lock
    lock.acquire()
    state = lock._release_save()
    clock.advance(10.0)
    lock._acquire_restore(state)
    lock.release()
    holds = [f for f in watch.findings() if f["kind"] == "long-hold"]
    assert holds == []


def test_condition_wait_roundtrip_smoke():
    watch = LockWatch()
    cond = threading.Condition(watch.lock("cond.lock"))
    with cond:
        cond.wait(timeout=0.01)
    assert watch.findings() == []


# -- long-hold and blocked-while-locked ---------------------------------------


def test_long_hold_reported_on_release():
    clock = FakeClock()
    watch = LockWatch(long_hold_threshold=1.0, clock=clock)
    lock = watch.lock("slow")
    with lock:
        clock.advance(2.5)
    holds = [f for f in watch.findings() if f["kind"] == "long-hold"]
    assert len(holds) == 1
    assert holds[0]["lock"] == "slow"
    assert holds[0]["held_seconds"] == pytest.approx(2.5)


def test_blocked_while_locked_via_patched_sleep():
    import time as time_module

    watch = LockWatch()
    watch.install(patch_sleep=True)
    try:
        lock = threading.Lock()  # built by the patched factory
        assert isinstance(lock, InstrumentedLock)
        with lock:
            time_module.sleep(0.001)
    finally:
        watch.uninstall()
    blocked = [
        f for f in watch.findings() if f["kind"] == "blocked-while-locked"
    ]
    assert len(blocked) == 1
    assert blocked[0]["locks"] == [lock.name]


# -- install()/uninstall() safety ---------------------------------------------


def test_install_restores_factories_and_sleep():
    import time as time_module

    orig_lock, orig_rlock = threading.Lock, threading.RLock
    orig_sleep = time_module.sleep
    watch = LockWatch()
    watch.install()
    assert threading.Lock is not orig_lock
    watch.uninstall()
    assert threading.Lock is orig_lock
    assert threading.RLock is orig_rlock
    assert time_module.sleep is orig_sleep


def test_thread_start_works_under_installed_watch():
    """Regression: current_thread() from a lock callback inside
    Thread._bootstrap_inner (before _active registration) built a
    _DummyThread, recursed on the instrumented Condition lock, and left
    Thread.start() waiting on _started forever."""
    watch = LockWatch()
    watch.install(patch_sleep=False)
    try:
        ran = threading.Event()
        thread = threading.Thread(target=ran.set)
        thread.start()
        thread.join(5)
        assert ran.is_set()
    finally:
        watch.uninstall()


def test_installed_watch_sees_runtime_locks_and_stays_clean():
    """A small real ingest under an installed watch: locks and nested
    acquisitions are recorded, zero inversions — the serve-leg contract."""
    from repro.core.config import StoryPivotConfig
    from repro.eventdata.sourcegen import synthetic_corpus
    from repro.runtime.runtime import RuntimeOptions, ShardedRuntime

    watch = LockWatch()
    watch.install(patch_sleep=False)
    try:
        runtime = ShardedRuntime(
            StoryPivotConfig.temporal(),
            RuntimeOptions(num_shards=2),
        )
        runtime.start()
        try:
            corpus = synthetic_corpus(
                total_events=40, num_sources=3, seed=5
            )
            runtime.consume(corpus.snippets_by_publication())
            runtime.flush()
        finally:
            runtime.stop()
    finally:
        watch.uninstall()

    report = watch.report()
    assert report["locks"] > 0
    assert report["acquisitions"] > 0
    assert report["counts"].get("lock-order-inversion", 0) == 0


def test_private_locks_invisible_to_installed_watch():
    session = LockWatch()
    session.install(patch_sleep=False)
    try:
        private = LockWatch()
        lock_a = private.lock("a")
        lock_b = private.lock("b")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
    finally:
        session.uninstall()
    assert inversion_findings(private)  # the private watch sees its cycle
    assert session.report()["edges"] == 0  # the session watch sees nothing
