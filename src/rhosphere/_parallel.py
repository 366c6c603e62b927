"""Independent calls in forked children, and the one rule for how many CPUs to use.

`Children.start(name, fn, *args)` forks a child that runs fn(*args) and
returns a function that gives the child's return value, or raises the
exception it raised, with the child's traceback as its cause; both come
back pickled over a pipe.  Where a fork
cannot help (one CPU, no fork, or other threads, which a fork does not
copy) fn runs at once in this process, so a caller's results do not
depend on which happened.  Leaving the `with` block joins every child,
after terminating those whose result was never read.  `multiprocessing`
and `traceback` are imported only here, inside the functions: `import
rhosphere` skips them.
"""

from __future__ import annotations

import os
import threading


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cpus() -> int:
    """Processes work may be spread over: the CPUs this process may run
    on, or 1 where processes cannot be forked."""
    import multiprocessing

    return _cpu_count() if "fork" in multiprocessing.get_all_start_methods() else 1


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a child, as its text."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _child_main(send, fn, args) -> None:
    # whatever fn raises, interrupts included, goes to the parent, which
    # raises it again
    try:
        reply = (True, fn(*args), None)
    except BaseException as exc:
        import traceback

        reply = (False, exc, traceback.format_exc())
    send.send(reply)


class Children:
    """Calls started in forked children, all joined when the block ends."""

    def __init__(self):
        self.started = []  # (process, receiving end of its pipe)

    def __enter__(self) -> Children:
        return self

    def start(self, name: str, fn, *args):
        if _cpus() < 2 or threading.active_count() > 1:
            value = fn(*args)
            return lambda: value
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        # the fork context flushes stdout and stderr first, and the child
        # leaves through os._exit, so no buffered output is written twice
        process = ctx.Process(target=_child_main, args=(send, fn, args), name=name)
        try:
            process.start()
        finally:
            send.close()
        self.started.append((process, recv))

        def result():
            try:
                ok, value, child_traceback = recv.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"{name} (pid {process.pid}) exited with code {process.exitcode} "
                                   "before it sent its result") from None
            finally:
                recv.close()
            if not ok:
                raise value from _ChildTraceback(child_traceback)
            return value

        return result

    def __exit__(self, *exc_info) -> None:
        for process, recv in self.started:
            if not recv.closed:
                process.terminate()
        for process, recv in self.started:
            process.join()
            recv.close()
