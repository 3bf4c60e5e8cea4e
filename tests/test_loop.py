"""The one background loop: wait, step, repeat — driven step by step.

Most tests run :meth:`Loop.run` on the test thread with a stepped clock,
on which waiting is what moves the time, so every schedule is exact.
"""

import logging
import threading

from repro.loop import Loop


class SteppedClock:
    """A loop clock on which waiting is what moves the time."""

    def __init__(self):
        self.time = 0.0

    def now(self):
        return self.time

    def wait(self, event, timeout):
        if not event.is_set():
            self.time += timeout
        return event.is_set()


def stepped(delays, first_delay=0.0, during=None):
    """Run a loop whose steps return ``delays`` in turn (then None);
    returns the clock time at which each step began."""
    clock = SteppedClock()
    began = []

    def step():
        began.append(clock.time)
        if during is not None:
            during(loop, len(began))
        return delays[len(began) - 1] if len(began) <= len(delays) else None

    loop = Loop("test-loop", step=step, first_delay=first_delay)
    loop.clock = clock
    loop.run()
    return began


class TestSchedule:
    def test_the_first_step_waits_the_first_delay(self):
        assert stepped([], first_delay=2.5) == [2.5]

    def test_a_step_returns_the_wait_before_the_next(self):
        assert stepped([1.0, 0.0, 0.5]) == [0.0, 1.0, 1.0, 1.5]

    def test_a_poke_during_a_step_cuts_the_next_wait_short(self):
        def poke_first(loop, n):
            if n == 1:
                loop.poke()

        assert stepped([1.0, 1.0], during=poke_first) == [0.0, 0.0, 1.0]

    def test_a_poke_is_spent_by_one_wait(self):
        def poke_first(loop, n):
            if n == 1:
                loop.poke()

        assert stepped([0.0, 1.0, 1.0], during=poke_first) == [
            0.0, 0.0, 0.0, 1.0,
        ]


class TestStop:
    def test_stop_inside_a_step_ends_the_loop_after_it(self):
        def stop_second(loop, n):
            if n == 2:
                loop.stop()

        assert stepped([1.0] * 5, during=stop_second) == [0.0, 1.0]

    def test_stop_inside_a_step_on_the_loop_thread_does_not_join_it(self):
        returned = threading.Event()

        def step():
            loop.stop()
            returned.set()  # stop() came back: it did not join itself
            return 60.0

        loop = Loop("test-self-stop", step=step)
        loop.start()
        assert returned.wait(5.0)
        loop.stop()
        assert not loop.alive

    def test_stop_from_another_thread_interrupts_the_wait_and_joins(self):
        stepped_once = threading.Event()

        def step():
            stepped_once.set()
            return 60.0

        loop = Loop("test-stop", step=step)
        loop.start()
        assert stepped_once.wait(5.0)
        assert loop.alive
        loop.stop()
        assert not loop.alive

    def test_sleep_inside_a_step_is_cut_short_by_stop(self):
        clock = SteppedClock()
        slept = []

        def step():
            loop.stop()
            slept.append(loop.sleep(30.0))
            return None

        loop = Loop("test-sleep", step=step)
        loop.clock = clock
        loop.run()
        assert slept == [True]
        assert clock.time == 0.0


class TestEnding:
    def test_a_step_exception_ends_the_loop_and_is_logged(self, caplog):
        calls = []

        def step():
            calls.append(1)
            raise RuntimeError("step broke")

        loop = Loop("test-raise", step=step)
        with caplog.at_level(logging.ERROR, logger="repro.loop"):
            loop.run()
        assert calls == [1]
        assert "test-raise: step raised" in caplog.text
        assert "step broke" in caplog.text

    def test_a_loop_restarts_after_it_ended(self):
        runs = []
        ended = threading.Event()

        def step():
            runs.append(threading.current_thread().name)
            ended.set()
            return None

        loop = Loop("test-restart", step=step)
        for expected in (1, 2):
            ended.clear()
            loop.start()
            assert ended.wait(5.0)
            loop.stop()
            assert len(runs) == expected
        assert runs == ["test-restart", "test-restart"]

    def test_a_loop_restarts_after_it_was_stopped(self):
        def step():
            return 60.0

        loop = Loop("test-restop", step=step)
        loop.start()
        loop.stop()
        assert not loop.alive
        loop.start()
        assert loop.alive
        loop.stop()
        assert not loop.alive
