#!/usr/bin/env python3
"""Fixed host-speed reference run between the benchmark's timed commands.

It does the kinds of work lislsim does -- dense numpy distance gating, a
heap-based Dijkstra in pure Python and a float text round trip -- on fixed
inputs, and never imports lislsim, so its time changes only with the
host's speed. The benchmark divides each command's wall time by the mean
of the calibration runs just before and after it. Do not change this file:
a change rescales every normalised time.
"""

import heapq

import numpy as np

rng = np.random.default_rng(12345)
n = 3000
pos = rng.random((n, 3)) * 1000.0
for _ in range(2):
    d2 = ((pos[:1500, None, :] - pos[None, :1500, :]) ** 2).sum(-1)
    np.nonzero(np.triu(d2 <= 150.0**2, 1))

adj = [[((i + 1) % n, 1.0 + (i % 7) * 0.1), ((i + 37) % n, 3.0), ((i - 1) % n, 1.0)]
       for i in range(n)]
for src in range(60):
    dist = [float("inf")] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            c = d + w
            if c < dist[v]:
                dist[v] = c
                heapq.heappush(heap, (c, v))

rows = "\n".join(f"{i} {i + 1} {x:.9f}" for i, x in enumerate(rng.random(150000)))
sum(float(line.split()[2]) for line in rows.splitlines())
