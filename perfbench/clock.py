"""The benchmark's clocks: CPU seconds, and a reference kernel for host speed.

Every operation, set-up, probe and span is timed with `cpu_seconds`, not
with wall time.  The reference host is a 2-vCPU VM whose hypervisor
takes the vCPU away for seconds at a time (steal time): over a minute, a
fixed pure-Python loop read 24-99 ms of wall time but 21-40 ms of CPU
time.  The operations do no I/O and do not sleep, apart from the
2-worker search's parent, which polls its workers; the workers' CPU time
counts once they are joined, so that leg reads CPU work per attempt, not
the speed-up of two cores.

CPU time still moves with the host: for seconds to minutes at a time the
same Python code runs up to a quarter faster.  After every operation the
loop times `reference_kernel`, fixed pure-Python code that bootforge
cannot change, and `scaled` turns an operation's CPU time into the time
it would take when the kernel takes `KERNEL_NOMINAL_S`.  Only metrics of
the simulator's short interpreter-bound operations are scaled; see
`harness.SCALED`.
"""

import resource
import time

# About the kernel's CPU time on the reference host; it sets the scale of
# the scaled metrics and nothing else.
KERNEL_NOMINAL_S = 0.4e-3


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_kernel() -> int:
    """Fixed integer and list work; allocates one list, so the heap the
    program leaves behind does not change its cost."""
    table = [0] * 64
    acc = 0
    for i in range(1500):
        key = i & 63
        acc = (acc * 31 + table[key] + i) & 0xFFFFFFFF
        table[key] = acc ^ i
    return acc


def kernel_seconds() -> float:
    """Median CPU time of three kernel runs."""
    times = []
    for _ in range(3):
        start = cpu_seconds()
        reference_kernel()
        times.append(cpu_seconds() - start)
    return sorted(times)[1]


def scaled(seconds: float, kernel: float) -> float:
    return seconds * KERNEL_NOMINAL_S / kernel
