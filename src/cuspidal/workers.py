"""One function mapped over task indices on the usable CPUs.

run(task, count) returns {i: task(i)} for i in range(count).  It forks its
processes once, before the first task, and runs in this process alone where
one CPU is usable, where there is no fork, where other threads run (a forked
child has only the calling thread, and a lock another thread holds stays
held in it), or where the tasks' tokens do not fit in one atomic write to
the claim pipe (PIPE_BUF bytes, 1024 tasks on Linux).

Every task's token is written to one claim pipe before the first fork, and
a process claims a task by reading its token, so each task runs once.  A
child sends each result back over its own pipe as a length-prefixed
``marshal`` record, so a result is made of ints, strings, None, tuples,
lists and dicts; it ends in os._exit, never writing to stdout or stderr.
Every child is reaped.  A task that a child claimed and never reported (the
child died) is missing from the result, and the caller fails loudly on it.

With ``until``, the run ends at the lowest index i whose result satisfies
it, once every index below i has reported; the children still running are
then killed.  This process only waits on them, so that none runs a task
past that point.  The other tasks' results are partial, and the caller
reads none above i.  So the outcome does not depend on which process ran
which task, or on how many there were.

The module imports only the standard library, and the modules that call
it bind it at their tops as the package's other modules.
"""

from __future__ import annotations

import marshal
import os
import select
import sys
from typing import Any, Callable

_TOKEN_BYTES = 4  # one task index in the claim pipe
_LENGTH_BYTES = 8  # the length prefix of one result record
# SIGKILL is 9 on every POSIX system; naming it from the signal module would
# import that module on the way to every table
_SIGKILL = 9


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def max_tasks() -> int:
    """The most tasks one run forks for: their tokens fill one atomic write."""
    return select.PIPE_BUF // _TOKEN_BYTES


def _worker_count(tasks: int) -> int:
    """One process per usable CPU, at most one per task; one alone where
    there is no fork, where other threads run, or above max_tasks()."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    if tasks > max_tasks():
        return 1
    return max(1, min(tasks, _usable_cpus()))


def run(
    task: Callable[[int], Any],
    count: int,
    *,
    largest_first: bool = False,
    until: Callable[[Any], bool] | None = None,
) -> dict[int, Any]:
    """{i: task(i)} for i in range(count), claimed in ascending order of i,
    or descending with ``largest_first``; see the module docstring."""
    order = range(count - 1, -1, -1) if largest_first else range(count)
    workers = _worker_count(count)
    if workers > 1:
        return _run_forked(task, order, workers, until)
    results = {}
    for i in order:
        results[i] = task(i)
        if until is not None and until(results[i]):
            break
    return results


def _run_forked(task, order: range, workers: int, until) -> dict[int, Any]:
    sys.stdout.flush()
    sys.stderr.flush()
    claims, write_fd = os.pipe()
    # at most PIPE_BUF bytes: written whole
    os.write(write_fd, b"".join(i.to_bytes(_TOKEN_BYTES, "big") for i in order))
    os.close(write_fd)
    pids = []
    pipes: dict[int, list] = {}  # a live child's result pipe -> [its pid, bytes not decoded]
    results: dict[int, Any] = {}
    try:
        # with `until` this process only waits on the children, W of them
        for _ in range(workers if until else workers - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the workers so far take the tasks
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _serve(task, claims, write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes[read_fd] = [pid, b""]
        if until is None or not pids:
            while token := os.read(claims, _TOKEN_BYTES):
                i = int.from_bytes(token, "big")
                results[i] = task(i)
                if until is not None and until(results[i]):
                    return results
                _receive(pipes, results, timeout=0)  # so that no child waits on a full pipe
        low = 0  # with `until`: every index below low has reported, and none hit
        while pipes:
            if until:
                while low in results and not until(results[low]):
                    low += 1
                if low in results:
                    break
            _receive(pipes, results, timeout=None)
        return results
    finally:
        os.close(claims)
        for fd, (pid, _) in pipes.items():  # a child still running is not needed
            os.kill(pid, _SIGKILL)
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(task, claims: int, write_fd: int) -> None:
    """A forked child: claim tasks until none is left, send each result
    back, and end in os._exit."""
    status = 1
    try:
        with open(write_fd, "wb") as out:
            while token := os.read(claims, _TOKEN_BYTES):
                i = int.from_bytes(token, "big")
                record = marshal.dumps((i, task(i)))
                out.write(len(record).to_bytes(_LENGTH_BYTES, "big") + record)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(pipes: dict[int, list], results: dict[int, Any], timeout: float | None) -> None:
    """Decode the records the children have sent, waiting up to ``timeout``
    seconds (None: until one sends or ends) for the first.  The pipe of a
    child that has ended is closed; a record it cut short is unreported."""
    ready, _, _ = select.select(list(pipes), [], [], timeout)
    for fd in ready:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            os.close(fd)
            del pipes[fd]
            continue
        pending = pipes[fd][1] + chunk
        start = 0
        while len(pending) - start >= _LENGTH_BYTES:
            body = start + _LENGTH_BYTES
            end = body + int.from_bytes(pending[start:body], "big")
            if end > len(pending):
                break
            i, value = marshal.loads(pending[body:end])
            results[i] = value
            start = end
        pipes[fd][1] = pending[start:]
