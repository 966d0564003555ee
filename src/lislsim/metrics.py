"""Schedule evaluation: delay/penalty totals, change rate, outage, jitter.

Every evaluator accepts either a :class:`~lislsim.routing.RoutingSchedule`
paired with its :class:`~lislsim.topology.SnapshotSeries`, or a one-hot
selection matrix paired with a delay matrix. Core quantities:

* ``eta_delay``   -- sum of the active route's delay over all slots.
* ``eta_penalty`` -- setup penalty times the number of route changes.
* ``eta_le``      -- their sum; ``mean_*`` variants divide by N.
* ``route_change_rate`` -- percentage of boundaries with a route change.

The per-slot instantaneous latency adds the setup penalty to the slot a
switch leads into (the first slot never carries one); outage, jitter, and
histograms are computed over that series. Unreachable slots contribute
nothing to the sums and appear as NaN gaps in the latency series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _is_schedule(obj) -> bool:
    return hasattr(obj, "routes") and hasattr(obj, "switch_flags")


def _slot_delays_and_switches(selection, delays) -> tuple[np.ndarray, np.ndarray]:
    """Normalize either input form to (per-slot delay with NaN gaps, switch flags)."""
    if _is_schedule(selection):
        series = delays
        out = np.full(selection.num_slots, np.nan)
        for i, route in enumerate(selection.routes):
            if route is None:
                continue
            delay = series.snapshot(i + 1).route_delay(route)
            if delay is None:
                raise ValueError(f"schedule route at slot {i + 1} uses a missing edge")
            out[i] = delay
        return out, selection.switch_flags()
    from . import oracle

    s = oracle.validate_selection(selection, np.asarray(delays, dtype=np.float64))
    d = np.asarray(delays, dtype=np.float64)
    rows = np.argmax(s, axis=0)
    cols = np.arange(s.shape[1])
    return d[rows, cols], rows[1:] != rows[:-1]


def coverage(selection) -> int:
    """Number of slots with an active route (selection matrices cover all)."""
    if _is_schedule(selection):
        return selection.coverage()
    return int(np.asarray(selection).shape[1])


def eta_delay(selection, delays) -> float:
    """Total end-to-end delay of the active routes over all slots (ms)."""
    slot_delays, _ = _slot_delays_and_switches(selection, delays)
    valid = ~np.isnan(slot_delays)
    total = 0.0
    for x in slot_delays[valid]:
        total += float(x)
    return total


def eta_penalty(selection, eta_s_ms: float) -> float:
    """Setup penalty accumulated over all route-change boundaries (ms)."""
    if _is_schedule(selection):
        switches = int(selection.switch_flags().sum())
    else:
        from . import oracle

        rows = oracle.selected_rows(selection)
        switches = int((rows[1:] != rows[:-1]).sum())
    return eta_s_ms * switches


def eta_le(selection, delays, eta_s_ms: float) -> float:
    """Total latency: delay plus penalty components (ms)."""
    return eta_delay(selection, delays) + eta_penalty(selection, eta_s_ms)


def route_change_rate(selection) -> float:
    """Percentage of slot boundaries at which the active route changes."""
    if _is_schedule(selection):
        flags = selection.switch_flags()
        n = selection.num_slots
    else:
        from . import oracle

        rows = oracle.selected_rows(selection)
        flags = rows[1:] != rows[:-1]
        n = rows.size
    return float(flags.sum()) * 100.0 / n


def instantaneous_latency_series(selection, delays, eta_s_ms: float) -> np.ndarray:
    """Per-slot latency; a switch adds eta_s to the slot it leads into.

    Unreachable slots are NaN and excluded from outage/jitter/histograms.
    The series sums to eta_le.
    """
    slot_delays, switches = _slot_delays_and_switches(selection, delays)
    latency = slot_delays.copy()
    for i, flag in enumerate(switches):
        if flag:
            latency[i + 1] += eta_s_ms
    return latency


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


def histogram(latency: np.ndarray, bin_width_ms: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Counts over half-open bins [k*w, (k+1)*w) anchored at zero.

    Returns (left_edges, counts) spanning the populated range; counts sum
    to the number of reachable slots.
    """
    if not (np.isfinite(bin_width_ms) and bin_width_ms > 0):
        raise ValueError("bin width must be finite and positive")
    latency = np.asarray(latency, dtype=np.float64)
    values = latency[~np.isnan(latency)]
    if values.size == 0:
        raise ValueError("latency series has no reachable slots")
    idx = np.floor(values / bin_width_ms).astype(np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    counts = np.bincount(idx - lo, minlength=hi - lo + 1)
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
    histogram_bin_ms: float = 0.25
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

    def histogram_table(self) -> str:
        edges, counts = histogram(self.latency_ms, self.histogram_bin_ms)
        rows = ["bin_left_ms\tcount"]
        rows.extend(f"{_fmt(e)}\t{int(c)}" for e, c in zip(edges, counts))
        return "\n".join(rows) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def evaluate(
    selection,
    delays,
    eta_s_ms: float,
    qos_ms: tuple[float, ...] = (),
    histogram_bin_ms: float = 0.25,
    runtime_s: float | None = None,
) -> MetricsReport:
    """Compute the full report for one schedule/selection."""
    slot_delays, switches = _slot_delays_and_switches(selection, delays)
    n = slot_delays.size
    valid = ~np.isnan(slot_delays)
    delay_total = 0.0
    for x in slot_delays[valid]:
        delay_total += float(x)
    switch_count = int(np.asarray(switches).sum())
    penalty = eta_s_ms * switch_count
    total = delay_total + penalty
    latency = slot_delays.copy()
    for i, flag in enumerate(switches):
        if flag:
            latency[i + 1] += eta_s_ms
    lam = switch_count * 100.0 / n
    algorithm = selection.algorithm if _is_schedule(selection) else "selection"
    cov = int(valid.sum())
    has_pair = n >= 2 and bool((valid[1:] & valid[:-1]).any())
    return MetricsReport(
        algorithm=algorithm,
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
        histogram_bin_ms=histogram_bin_ms,
        runtime_s=runtime_s,
    )
