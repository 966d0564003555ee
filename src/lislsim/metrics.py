"""Schedule evaluation: delay/penalty totals, change rate, outage, jitter.

``evaluate`` computes every metric of a
:class:`~lislsim.routing.RoutingSchedule` in one pass over its per-slot
``delay_ms``. Core quantities:

* ``eta_delay``   -- sum of the active route's delay over all slots.
* ``eta_penalty`` -- setup penalty times the number of route changes.
* ``eta_le``      -- their sum; ``mean_*`` variants divide by N.
* ``route_change_rate`` -- route changes per slot (switches / N), in percent;
  dividing by N, not by the N - 1 boundaries, is what makes
  ``mean_eta_le = mean_eta_delay + eta_s * route_change_rate / 100`` hold.

The per-slot instantaneous latency adds the setup penalty to the slot a
switch leads into (the first slot never carries one); outage, jitter, and
histograms are computed over that series. Unreachable slots contribute
nothing to the sums and appear as NaN gaps in the latency series. Delays are
summed by ``slot_order_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def slot_order_sum(delays) -> float:
    """Sum of the delays as Python floats, added one at a time in slot order.

    ``np.sum`` (pairwise) and Python 3.12's ``sum()`` (compensated) both give
    1.0 for ``[0.1] * 10``, not 0.9999999999999999. The package supports
    Python 3.10 on, so either would make ``sweep.tsv`` depend on the interpreter.
    """
    total = 0.0
    for x in delays:
        total += float(x)
    return total


def outage_probability(latency: np.ndarray, qos_ms: float) -> float:
    """Fraction of (reachable) slots whose latency exceeds the QoS bound."""
    if qos_ms <= 0:
        raise ValueError("QoS threshold must be positive")
    latency = np.asarray(latency, dtype=np.float64)
    valid = ~np.isnan(latency)
    total = int(valid.sum())
    if total == 0:
        raise ValueError("latency series has no reachable slots")
    return float((latency[valid] > qos_ms).sum()) / total


def average_jitter(latency: np.ndarray) -> float:
    """Mean absolute latency difference across consecutive reachable slots."""
    latency = np.asarray(latency, dtype=np.float64)
    if latency.size < 2:
        raise ValueError("jitter needs at least two slots")
    diffs = np.abs(latency[1:] - latency[:-1])
    valid = ~np.isnan(diffs)
    if not valid.any():
        raise ValueError("no consecutive pair of reachable slots")
    return float(diffs[valid].sum()) / int(valid.sum())


# Most bins ``histogram`` returns: a finer width over the populated range is
# refused rather than allocated (1e-12 ms bins over a few ms of spread would
# ask for terabytes of counts).
MAX_HISTOGRAM_BINS = 1_000_000


def histogram(latency: np.ndarray, bin_width_ms: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts over half-open bins [k*w, (k+1)*w) anchored at zero.

    Returns (left_edges, counts) spanning the populated range; counts sum
    to the number of reachable slots. A range that needs more than
    ``MAX_HISTOGRAM_BINS`` bins raises ValueError.
    """
    if not (np.isfinite(bin_width_ms) and bin_width_ms > 0):
        raise ValueError("bin width must be finite and positive")
    latency = np.asarray(latency, dtype=np.float64)
    values = latency[~np.isnan(latency)]
    if values.size == 0:
        raise ValueError("latency series has no reachable slots")
    idx = np.floor(values / bin_width_ms)
    lo, hi = idx.min(), idx.max()
    # bin indices must be exact integers (|k| < 2**53), and few enough
    if not (hi - lo < MAX_HISTOGRAM_BINS and -(2.0**53) < lo and hi < 2.0**53):
        raise ValueError(
            f"histogram bin width {bin_width_ms!r} ms is too fine for the latency range: "
            f"it needs more than {MAX_HISTOGRAM_BINS} bins or a bin index beyond 2**53"
        )
    lo, hi = int(lo), int(hi)
    counts = np.bincount((idx - lo).astype(np.int64), minlength=hi - lo + 1)
    edges = (np.arange(lo, hi + 1)) * bin_width_ms
    return edges, counts


@dataclass
class MetricsReport:
    """Full evaluation of one schedule at one setup-delay value."""

    algorithm: str
    eta_s_ms: float
    num_slots: int
    coverage: int
    eta_delay_ms: float
    eta_penalty_ms: float
    eta_le_ms: float
    mean_eta_le_ms: float
    mean_eta_delay_ms: float
    route_change_rate_pct: float
    switch_count: int
    average_jitter_ms: float
    outage: tuple[tuple[float, float], ...]
    latency_ms: np.ndarray = field(repr=False)
    runtime_s: float | None = None

    def identity_residual(self) -> float:
        """|mean latency - (mean delay + eta_s * change-rate)| in ms."""
        return abs(
            self.mean_eta_le_ms
            - (self.mean_eta_delay_ms + self.eta_s_ms * self.route_change_rate_pct / 100.0)
        )

    def to_text(self) -> str:
        lines = [
            f"algorithm {self.algorithm} -",
            f"eta_s {_fmt(self.eta_s_ms)} ms",
            f"num_slots {self.num_slots} count",
            f"coverage {self.coverage} count",
            f"eta_delay {_fmt(self.eta_delay_ms)} ms",
            f"eta_penalty {_fmt(self.eta_penalty_ms)} ms",
            f"eta_le {_fmt(self.eta_le_ms)} ms",
            f"mean_eta_le {_fmt(self.mean_eta_le_ms)} ms",
            f"mean_eta_delay {_fmt(self.mean_eta_delay_ms)} ms",
            f"route_change_rate {_fmt(self.route_change_rate_pct)} percent",
            f"switch_count {self.switch_count} count",
            f"average_jitter {_fmt(self.average_jitter_ms)} ms",
        ]
        for qos, prob in self.outage:
            lines.append(f"outage@{_fmt(qos)}ms {_fmt(prob)} probability")
        if self.runtime_s is not None:
            lines.append(f"runtime {self.runtime_s:.6f} s")
        return "\n".join(lines) + "\n"

    def latency_table(self) -> str:
        rows = ["slot\tlatency_ms"]
        for i, x in enumerate(self.latency_ms, start=1):
            rows.append(f"{i}\t-" if np.isnan(x) else f"{i}\t{_fmt(x)}")
        return "\n".join(rows) + "\n"

    def histogram_table(self, bin_width_ms: float) -> str:
        edges, counts = histogram(self.latency_ms, bin_width_ms)
        rows = ["bin_left_ms\tcount"]
        rows.extend(f"{_fmt(e)}\t{int(c)}" for e, c in zip(edges, counts))
        return "\n".join(rows) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def evaluate(
    schedule,
    eta_s_ms: float,
    qos_ms: tuple[float, ...] = (),
    runtime_s: float | None = None,
) -> MetricsReport:
    """Compute the full report for one schedule from its per-slot delays."""
    n = schedule.num_slots
    valid = ~np.isnan(schedule.delay_ms)
    delay_total = slot_order_sum(schedule.delay_ms[valid])
    switches = schedule.switch_flags()
    switch_count = int(switches.sum())
    penalty = eta_s_ms * switch_count
    total = delay_total + penalty
    latency = schedule.delay_ms.copy()
    latency[1:][switches] += eta_s_ms
    lam = switch_count * 100.0 / n
    cov = int(valid.sum())
    has_pair = n >= 2 and bool((valid[1:] & valid[:-1]).any())
    return MetricsReport(
        algorithm=schedule.algorithm,
        eta_s_ms=eta_s_ms,
        num_slots=n,
        coverage=cov,
        eta_delay_ms=delay_total,
        eta_penalty_ms=penalty,
        eta_le_ms=total,
        mean_eta_le_ms=total / n,
        mean_eta_delay_ms=delay_total / n,
        route_change_rate_pct=lam,
        switch_count=switch_count,
        average_jitter_ms=average_jitter(latency) if has_pair else float("nan"),
        outage=tuple(
            (q, outage_probability(latency, q) if cov else float("nan")) for q in qos_ms
        ),
        latency_ms=latency,
        runtime_s=runtime_s,
    )
