"""The CPUs this process may use, and the one way rhosphere forks a child.

Two children are forked, each beside work this process goes on with: the
snapshot writer of `cli`, which writes the files while `evolve` runs, and
the validation child of `validate`, which runs the independent checks
while this process makes the time-reversal run.  Both come from `child`,
and whether to fork at all is decided only by `can_fork`; the `sweep`
pool's workers are the only children made elsewhere.

- `can_fork` is true when this process may run on more than one CPU, has
  os.fork and runs no other live thread.  With one CPU the child could
  only take turns with its parent.  A fork copies only the forking
  thread, so a lock that another thread holds would stay locked in the
  child for good.  Where it is false the caller does the child's work
  itself, with the same bytes.
- `child` returns an unstarted fork-context multiprocessing.Process.  It
  reads this thread's CPU when it is made (`this_cpu`), and the child's
  first act is `keep_off(that cpu)`.  A pipe write wakes its reader on the
  writer's CPU, so a child that its parent feeds or waits on through a
  pipe would run where the parent runs, and the two would take turns
  while another CPU sat idle.  The parent itself is never pinned.

The fork context flushes stdout and stderr before the fork, and the child
leaves through os._exit, so nothing buffered is written twice.
multiprocessing is imported only when a child is made, so `import
rhosphere.cli` does not load it.
"""

from __future__ import annotations

import os
import threading


def cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def can_fork() -> bool:
    """Whether a child may be forked: more than one usable CPU, os.fork,
    and no live thread but this one."""
    return cpus() > 1 and hasattr(os, "fork") and threading.active_count() == 1


def child(target, args: tuple, name: str):
    """An unstarted fork-context Process named name that runs
    target(*args) once it has kept off the CPU this thread is on now."""
    import multiprocessing

    return multiprocessing.get_context("fork").Process(target=_kept_off, args=(this_cpu(), target, args),
                                                       name=name)


def _kept_off(cpu: int | None, target, args: tuple) -> None:
    keep_off(cpu)
    target(*args)


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
