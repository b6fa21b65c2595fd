"""Summary arithmetic of the benchmark: percentiles and failure counts.

Kept free of the package under test so that the tests in
``test_harness.py`` can check it on its own.
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# beyond it, so that one slow sample cannot set it alone.
TAIL_BEYOND = 10
_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n, p):
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(len(xs), p) - 1]


def samples_beyond(n, p):
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    return n - _rank(n, p)


def p90_or_median(values):
    """Nearest-rank 90th percentile when at least ``TAIL_BEYOND``
    samples lie beyond it; otherwise the median, because so few samples
    cannot place a tail and their largest one is mostly noise."""
    if samples_beyond(len(values), 90.0) >= TAIL_BEYOND:
        return percentile(values, 90.0)
    return statistics.median(values)


def tail_percentile(n, beyond=TAIL_BEYOND):
    """Highest of the usual percentiles (99.9, 99, 95, 90, 75, 50) that
    has at least ``beyond`` of ``n`` samples above it, or None."""
    for p in _CANDIDATES:
        if samples_beyond(n, p) >= beyond:
            return p
    return None


class Outcome:
    """Result of one instance: the exit code and whether its outputs
    passed the correctness check (None when not checked)."""

    __slots__ = ("exit_code", "checked_ok")

    def __init__(self, exit_code, checked_ok=None):
        self.exit_code = exit_code
        self.checked_ok = checked_ok

    @property
    def failed(self):
        return self.exit_code != 0 or self.checked_ok is False


def failure_counts(outcomes):
    """(attempted, failed, failed_frac) over instance outcomes.

    An instance that both exits non-zero and fails its check counts
    once.
    """
    attempted = len(outcomes)
    if attempted == 0:
        raise ValueError("no instances attempted")
    failed = sum(1 for o in outcomes if o.failed)
    return attempted, failed, failed / attempted
