"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose speed changes with the other
tenants' load: on a 2-core shared x86 box every computation ran up to 1.7x
slower, in spells that lasted from seconds to minutes. A fixed calibration
kernel, which calls no slicedp code, is timed between requests; the host
factor is its time over its time on the reference machine, and every time
the benchmark gates is divided by that factor. The kernel does the three
kinds of work slicedp spends its time on: interpreted Python, numpy sorting
and csv parsing.
"""

import csv
import io
import math
import statistics
from time import perf_counter

import numpy as np

# median time of each kernel on the reference machine (2-core shared x86
# box, Python 3.11, numpy 2.4)
REFERENCE_S = {"python": 0.0097, "sort": 0.013, "csv": 0.018}
SORT_KEYS = 100_000
CSV_ROWS = 10_000
PYTHON_STEPS = 30_000


class Calibration:
    """Samples of the calibration kernel, and the host factor they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 62, size=SORT_KEYS, dtype=np.uint64)
        rows = rng.integers(0, 1 << 16, size=(CSV_ROWS, 3)).tolist()
        self._text = "\n".join(",".join(map(str, row)) for row in rows)
        self.samples = {name: [] for name in REFERENCE_S}

    def _python(self):
        counts, total = {}, 0
        for i in range(PYTHON_STEPS):
            counts[i % 97] = counts.get(i % 97, 0) + 1
            total += len(str(i))
        return total

    def _sort(self):
        return int(np.argsort(self._keys, kind="stable")[0])

    def _csv(self):
        return len([[int(cell) for cell in row] for row in csv.reader(io.StringIO(self._text))])

    def sample(self) -> None:
        """Time each kernel once."""
        for name, kernel in (("python", self._python), ("sort", self._sort),
                             ("csv", self._csv)):
            t0 = perf_counter()
            kernel()
            self.samples[name].append(perf_counter() - t0)

    def factor(self) -> float:
        """Host time per reference time: the mean over the samples of each
        sample's geometric mean, over the kernels, of its time over the
        reference time. The host switches speed within seconds, so the mean,
        not the median, follows the share of a long request spent slowed."""
        logs = [[math.log(t / REFERENCE_S[name]) for t in times]
                for name, times in self.samples.items()]
        return statistics.fmean(math.exp(statistics.fmean(sample)) for sample in zip(*logs))
