'''Starts one command and reports its exit code, wall time and peak RSS.

Usage: python3 bench/launch.py COMMAND [ARG...]

The benchmark starts every measured command through this small process rather
than directly.  On Linux, exec() folds the high-water RSS of the address space
it replaces into the new program's ru_maxrss.  A child that Python's
subprocess starts shares or copies the benchmark runner's address space up to
exec, so its ru_maxrss would be at least the runner's own peak, which includes
the generated inputs.  Here the command is forked from this process, which
imports nothing but a few built-in modules, so that floor is only a bare
interpreter's current RSS.

The command inherits stdin, stderr and the working directory; its stdout goes
to /dev/null, and it is killed after TIMEOUT_S seconds.  The last line of
stdout is ``<exit code> <wall seconds> <ru_maxrss KiB>``; the wall time runs
from just before fork to just after the command has ended.
'''

import os
import signal
import sys
import time

#: a command that runs longer than this is killed
TIMEOUT_S = 150


def main(command):
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print('%d %r %d' % (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss))


if __name__ == '__main__':
    main(sys.argv[1:])
