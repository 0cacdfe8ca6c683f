"""The fork helper on its own: workers.run gives the in-process map on any
CPU count, keeps the lowest index that satisfies ``until`` and kills the
children still running, leaves a task whose process died missing, forks
nothing while another thread runs, and reaps every child it forked."""

import os
import time

import pytest

from cuspidal import workers
from oracles import assert_no_child_left, with_cpus


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_is_the_in_process_map(monkeypatch, cpus):
    # a result far larger than a pipe's buffer arrives whole
    def task(i):
        return {"i": i, "square": i * i, "text": "x" * (i << 16), "big": 3**(1000 + i)}

    with_cpus(monkeypatch, cpus)
    for largest_first in (False, True):
        got = workers.run(task, 7, largest_first=largest_first)
        assert got == {i: task(i) for i in range(7)}
        assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_until_keeps_the_lowest_hit_and_kills_the_rest(monkeypatch, cpus):
    # index 2 hits at once and index 1 late: the run waits for index 1; the
    # tasks from 3 on would take a minute, so they are cut off, not awaited
    def task(i):
        if i == 1:
            time.sleep(0.3)
        elif i >= 3:
            time.sleep(60)
        return i in (1, 2)

    with_cpus(monkeypatch, cpus)
    start = time.monotonic()
    got = workers.run(task, 8, until=bool)
    assert time.monotonic() - start < 30
    assert (got[0], got[1]) == (False, True)
    assert_no_child_left()


def test_a_task_whose_process_died_is_missing(monkeypatch):
    # with `until` every task runs in a child
    parent = os.getpid()

    def task(i):
        if i == 2 and os.getpid() != parent:
            os._exit(9)
        return i

    with_cpus(monkeypatch, 2)
    got = workers.run(task, 6, until=lambda _: False)
    assert got == {i: i for i in range(6) if i != 2}
    assert_no_child_left()


def test_an_error_here_kills_and_reaps_every_child(monkeypatch):
    def task(i):
        if i:
            time.sleep(60)
        return i

    def until(result):
        raise ValueError("stop")

    with_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="stop"):
        workers.run(task, 5, until=until)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_nothing_forks_while_another_thread_runs(monkeypatch):
    import threading

    def refuse():
        raise AssertionError("forked while another thread ran")

    with_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        got = workers.run(lambda i: (i, os.getpid()), 4)
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()
    assert got == {i: (i, os.getpid()) for i in range(4)}


@pytest.mark.parametrize("until", [None, bool])
def test_a_failed_fork_leaves_the_tasks_to_this_process(monkeypatch, until):
    def no_process():
        raise OSError("no process to spare")

    with_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_process)
    got = workers.run(lambda i: i >= 2, 5, until=until)
    assert got == {i: i >= 2 for i in range(3 if until else 5)}
    assert_no_child_left()
