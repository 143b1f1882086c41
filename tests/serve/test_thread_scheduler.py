"""The real-thread :class:`ThreadScheduler` behind a live :class:`Server`.

The rest of the serve suite runs on the virtual clock; these tests pin
the two wall-clock behaviours the production pool relies on: a latched
``poke`` (what :meth:`Server.submit` uses to wake the driver) and a
scripted stall that honours its request's deadline.
"""

import threading
import time

from repro.runtime import faults
from repro.serve import RetryPolicy, ServeRequest, Server
from repro.serve.scheduler import ThreadScheduler

from tests.serve.conftest import QUERY


def test_poke_between_waits_makes_the_next_wait_return_at_once():
    scheduler = ThreadScheduler()
    scheduler.poke()  # no driver is waiting: the poke must be latched
    started = time.monotonic()
    scheduler.wait(5.0)
    assert time.monotonic() - started < 1.0
    # The latch is consumed: a second wait blocks until its timeout.
    started = time.monotonic()
    scheduler.wait(0.05)
    assert time.monotonic() - started >= 0.04


class _TimedScheduler(ThreadScheduler):
    """Records when each worker body returns."""

    def __init__(self):
        super().__init__()
        self.finished = None

    def spawn(self, label, fn):
        def timed():
            try:
                fn()
            finally:
                self.finished = time.monotonic()

        return super().spawn(label, timed)


def test_expired_worker_leaves_its_stall_within_one_quantum(db):
    scheduler = _TimedScheduler()
    server = Server(
        db, pool_size=1, chain=("safe_lifted",), scheduler=scheduler,
        retry=RetryPolicy(max_retries=0),
    )
    responses = []
    request = ServeRequest(id="q", query=QUERY, deadline=0.3)
    with faults.inject({"safe_lifted": faults.SlowdownFault(seconds=30.0)}):
        driver = threading.Thread(
            target=lambda: responses.extend(server.run([request])),
            daemon=True,
        )
        submitted = time.monotonic()
        driver.start()
        driver.join(10.0)
    assert not driver.is_alive()
    # The stall checkpoints between slices, so the 0.3 s deadline stops
    # it within one quantum instead of after 30 s.
    assert scheduler.finished - submitted < 0.3 + faults.SLEEP_QUANTUM + 0.2
    (response,) = responses
    assert response.attempts == (("safe_lifted", "budget_exceeded"),)
