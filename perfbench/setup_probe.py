"""Time one set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py CONFIG

Set-up is what a run pays before its first step: importing the package,
parsing the configuration, and building the grid and the initial state.
`src` must be on PYTHONPATH.  Prints one line: the set-up time at nominal
speed (on a `speed.SpeedClock` with the interpreter-only kernel, since
numpy is not imported yet) and the wall time, kernel samples excluded.
"""

import sys
from time import perf_counter

import speed

clock = speed.SpeedClock(speed.python_kernel, speed.PYTHON_NOMINAL_S)
with clock.running():
    t0, w0, k0 = clock.now(), perf_counter(), clock.kernel_s
    import rhosphere  # noqa: E402,F401
    from rhosphere.config import parse_config  # noqa: E402
    from rhosphere.scenarios import initial_state, make_initial  # noqa: E402

    spec = parse_config(sys.argv[1]).initial_spec()
    initial_state(spec)
    make_initial(spec)
    t1, w1, k1 = clock.now(), perf_counter(), clock.kernel_s
print(repr(t1 - t0), repr(w1 - w0 - (k1 - k0)))
