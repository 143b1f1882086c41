"""The real-thread :class:`ThreadScheduler` behind a live :class:`Server`.

The rest of the serve suite runs on the virtual clock; these tests pin
the two wall-clock behaviours the production pool relies on: a latched
``poke`` (what :meth:`Server.submit` uses to wake the driver) and a
scripted stall that honours its worker's cancel token.
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


def test_cancelled_worker_leaves_its_stall_within_one_quantum(db):
    scheduler = _TimedScheduler()
    server = Server(
        db, pool_size=1, chain=("exact",), scheduler=scheduler,
        retry=RetryPolicy(max_retries=0),
    )
    responses = []
    with faults.inject({"exact": faults.SlowdownFault(seconds=30.0)}):
        driver = threading.Thread(
            target=lambda: responses.extend(
                server.run([ServeRequest(id="q", query=QUERY)])
            ),
            daemon=True,
        )
        driver.start()
        give_up = time.monotonic() + 10.0
        while not server._running and time.monotonic() < give_up:
            time.sleep(0.005)
        (ticket,) = server._running.values()
        time.sleep(0.1)  # the worker is inside its 30 s stall
        cancelled_at = time.monotonic()
        ticket.token.cancel("cancelled by the test")
        driver.join(10.0)
    assert not driver.is_alive()
    assert scheduler.finished - cancelled_at < faults.SLEEP_QUANTUM + 0.2
    (response,) = responses
    assert response.attempts == (("exact", "budget_exceeded"),)
    (attempt,) = ticket.attempts
    assert attempt.detail == "cancelled by the test"
