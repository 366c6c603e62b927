"""The CPUs this process may use, and keeping a forked child off its parent's.

A pipe write wakes its reader on the writer's CPU.  So a child that a
parent feeds or waits on through a pipe would run where the parent runs,
and the two would take turns while another CPU sat idle.  The snapshot
writer of `cli` and the validation child of `validate` therefore read the
parent's CPU just before the fork (`this_cpu`), and the child's first act
is `keep_off(that cpu)`.  The parent itself is never pinned.
"""

from __future__ import annotations

import os


def cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# this thread's stat line; its field 39 is the CPU the thread last ran on
THREAD_STAT = "/proc/thread-self/stat"


def this_cpu() -> int | None:
    """The CPU this thread is on, or None where THREAD_STAT is missing or
    cannot be parsed.  The fields are counted after the command name, the
    last ")" of the line, since that name may hold spaces."""
    try:
        with open(THREAD_STAT, "rb") as f:
            return int(f.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def keep_off(cpu: int | None) -> None:
    """Restrict this process to the CPUs it may use other than cpu.  It
    stays where it is if cpu is unknown, if no other CPU is left or if the
    kernel refuses the set, as it may under a cpuset."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        try:
            os.sched_setaffinity(0, others)
        except OSError:
            pass
