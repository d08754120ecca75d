"""How fast the host runs Python right now, measured by a fixed reference kernel.

On a shared host, neighbours slow the same code by up to 1.8x in phases of
seconds to tens of seconds, and by up to 4x in rarer episodes lasting
minutes. No statistic of raw times taken inside one run can remove a slowdown
that covers the whole run. The kernel below is timed next to every timed
call. Dividing the call's time by the kernel's time removes the share of the
slowdown that both suffer, and `K_REF_S` turns the ratio back into seconds on
a host that runs the kernel in `K_REF_S`.

The kernel is a frozen global-alignment dynamic program shaped like
phondist's aligners at the commit that added the benchmark: list-of-list
tables, a similarity method that looks pairs up through a dict index, float
arithmetic and comparisons. It depends on nothing in phondist, so a change to
phondist never changes the kernel. It imports only the standard library, so
the process that starts the CLI subprocesses stays small (see run.py). A change that slows every piece
of Python in the process (a trace hook, tracemalloc left on) would slow the
kernel too and cancel out; raw times stay in every run record for that case.
"""

import random
import time

# Fixed scale of normalised times: a round figure near the kernel's time on
# the 2-CPU host where the benchmark was written (Python 3.11), which ranged
# from ~5 ms when the host was quiet to ~9 ms when it was busy.
K_REF_S = 0.006

_SIZE = 150


class Kernel:
    """A fixed 150 x 150 global alignment over a 62-symbol pseudo-random table."""

    def __init__(self):
        rng = random.Random("hostspeed")
        symbols = [f"s{i}" for i in range(62)]
        self.index = {s: i for i, s in enumerate(symbols)}
        self.values = [[rng.random() for _ in symbols] for _ in symbols]
        self.left = [rng.choice(symbols) for _ in range(_SIZE)]
        self.right = [rng.choice(symbols) for _ in range(_SIZE)]

    def similarity(self, a: str, b: str) -> float:
        return 10.0 * (0.75 - float(self.values[self.index[a]][self.index[b]]))

    def run(self) -> float:
        left, right = self.left, self.right
        n, m = len(left), len(right)
        score = [[0.0] * (m + 1) for _ in range(n + 1)]
        for j in range(1, m + 1):
            score[0][j] = score[0][j - 1] - 5.0
        for i in range(1, n + 1):
            row, prev = score[i], score[i - 1]
            row[0] = prev[0] - 5.0
            for j in range(1, m + 1):
                best = prev[j - 1] + self.similarity(left[i - 1], right[j - 1])
                up = prev[j] - 5.0
                if up > best:
                    best = up
                lft = row[j - 1] - 5.0
                if lft > best:
                    best = lft
                row[j] = best
        return score[n][m]

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
