"""Machine-speed calibration in an interpreter of its own.

The benchmark shares its host with other work, which slows every process
on it by tens of percent for seconds at a time.  A fixed loop of the same
kind of work the package does (small numpy arrays and Python calls, but no
screwchain code) is timed right before and right after each measured
operation.  A measured time t is reported as t * REF_S / c, where c is the
mean of the two loop times around it: the time the operation would have
taken at the speed at which the loop takes REF_S.  This tracks the host
only as finely as the operations are short, which is why the workloads
keep most operations to a second or two.

The loop runs in a child interpreter that imports numpy and nothing else
and runs one loop each time it is asked.  The benchmark process and the
child share no heap, garbage collector or interpreter state, so what the
program allocates or leaves behind cannot speed up or slow down the loop;
only the machine can.
"""

import subprocess
import sys
import time

import numpy as np

LOOPS = 500
# Times are reported at the machine speed at which one loop takes REF_S.
# On the reference machine (a 2-vCPU Intel Xeon sandbox, Python 3.11.7,
# numpy 2.4.6, one BLAS thread) loops took 20 to 70 ms, most often about
# 33 ms.
REF_S = 0.025

_W = np.array([0.3, -0.2, 0.5])
_V = np.array([0.1, 0.4, -0.3])
_M = np.eye(6) + 0.01


def _kernel(loops):
    acc = 0.0
    for _ in range(loops):
        theta = float(np.linalg.norm(_W))
        k = _W / theta
        kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        rot = np.eye(3) + np.sin(theta) * kx + (1.0 - np.cos(theta)) * (kx @ kx)
        x = np.empty(6)
        x[:3] = rot @ _V + np.cross(_W, _V)
        x[3:] = _W
        acc += float(x @ (_M @ x)) + float(np.linalg.det(rot))
    return acc


class Clock:
    """The child interpreter that times the loop; close it when done."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__, str(LOOPS)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def sample(self):
        """Seconds one calibration loop takes now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self._proc.wait()}")
        return float(line)

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(loops):
    """Time one loop for every line read, until standard input closes."""
    for _ in sys.stdin:
        tic = time.perf_counter()
        _kernel(loops)
        print(time.perf_counter() - tic, flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
