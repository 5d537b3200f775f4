"""Shared pieces of the benchmark: statistics, spans, the oracle gate,
input generators and resource readings.

Nothing here imports the program under test at module load; the
workloads import ``repro`` after ``run.py`` has put the checkout's
``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The layers a span name can start with; the traced run reports each
#: one's self time as a share of the traced request time.
LAYERS = ("loadgen", "serving", "engine", "core", "dynamic", "store",
          "shard")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def tail_percentile(count: int) -> float:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 75.0


def histogram_quantile(buckets: Sequence[Tuple[float, float]],
                       q: float) -> float:
    """Quantile ``q`` (0-1) of a cumulative Prometheus histogram.

    ``buckets`` holds ``(upper_bound, cumulative_count)`` in bound
    order, ``+Inf`` last. Interpolates linearly inside the bucket, as
    Prometheus' ``histogram_quantile`` does.
    """
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    rank = q * total
    lower, below = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if math.isinf(bound):
                return lower
            inside = count - below
            share = (rank - below) / inside if inside else 0.0
            return lower + (bound - lower) * share
        lower, below = bound, count
    return lower


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    request: int


class Tracer:
    """In-memory span recorder for the traced run.

    Spans are recorded from the benchmark's side of each call into a
    layer; a disabled tracer records nothing and costs one branch.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request = 0

    @contextlib.contextmanager
    def request(self):
        """A root span: one request, whose children share its id."""
        if not self.enabled:
            yield
            return
        self._request += 1
        with self.span("request"):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        begin = time.perf_counter()
        self.spans.append(Span(name, begin, begin, parent, self._request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            request: int, parent: int = -1) -> int:
        """Record a finished span (for concurrent requests)."""
        if not self.enabled:
            return -1
        self.spans.append(Span(name, start, end, parent, request))
        return len(self.spans) - 1

    def new_request(self) -> int:
        self._request += 1
        return self._request

    def summary(self) -> Dict[str, float]:
        """Per-layer self-time shares and the uncovered remainder.

        A span's self time is its duration less the union of its
        children's intervals. Shares are of the summed root time; the
        roots' own self time is the part no layer span covers.
        """
        children: Dict[int, List[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(i)
        self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        root_total = uncovered = 0.0
        for i, span in enumerate(self.spans):
            covered = _union_length(
                [(self.spans[c].start, self.spans[c].end)
                 for c in children.get(i, ())])
            own = max(0.0, span.end - span.start - covered)
            if span.parent < 0:
                root_total += span.end - span.start
                uncovered += own
            else:
                layer = span.name.split(".", 1)[0]
                if layer in self_time:
                    self_time[layer] += own
        out = {"trace.uncovered_share":
               uncovered / root_total if root_total else 0.0}
        for layer in LAYERS:
            out[f"trace.self_share.{layer}"] = (
                self_time[layer] / root_total if root_total else 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request}
                for s in self.spans]
        path.write_text(json.dumps({"spans": rows}))


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cursor = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


# ----------------------------------------------------------------------
# Outcome accounting and the oracle gate
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """Operations attempted and failed, with the oracle's verdict."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    checked: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def mismatch(self, note: str) -> None:
        self.mismatches += 1
        self.fail("oracle mismatch: " + note)


def edge_set(edges: Iterable) -> frozenset:
    return frozenset((min(int(a), int(b)), max(int(a), int(b)))
                     for a, b in edges)


def check_distance(outcome: Outcome, graph, u: int, v: int,
                   answer: Optional[int]) -> None:
    from repro.baselines.oracle import distance_oracle

    outcome.checked += 1
    expected = distance_oracle(graph, u, v)
    if answer != expected:
        outcome.mismatch(f"distance({u}, {v}) = {answer}, "
                         f"oracle {expected}")


def check_spg(outcome: Outcome, graph, u: int, v: int,
              distance: Optional[int], edges: Iterable) -> None:
    """Compare an SPG answer with the oracle's, edge set included."""
    from repro.baselines.oracle import spg_oracle

    outcome.checked += 1
    expected = spg_oracle(graph, u, v)
    got = edge_set(edges)
    if distance != expected.distance or got != edge_set(expected.edges):
        outcome.mismatch(
            f"spg({u}, {v}): d={distance} |E|={len(got)}, oracle "
            f"d={expected.distance} |E|={expected.num_edges}")


def sample_positions(count: int, k: int, seed: int) -> List[int]:
    """A seeded choice of ``k`` of ``range(count)`` answers to audit."""
    if count <= 0:
        return []
    rng = np.random.default_rng(seed + 7919)
    k = min(k, count)
    return sorted(int(i) for i in rng.choice(count, size=k, replace=False))


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------

def preferential_attachment_edges(n: int, m: int, seed: int
                                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Barabási–Albert edges, vectorized.

    Each new vertex ``t`` sends ``m`` edges; each target is a uniform
    draw from the endpoint pool of all earlier edges plus the ``m``
    seed vertices, which is degree-proportional choice, the BA urn.
    A draw that lands on the target end of an earlier edge copies that
    edge's (possibly still unresolved) target, so the targets resolve
    by pointer chasing in a few vectorized rounds. Unlike the library's
    loop, a vertex may draw the same target twice; the graph builder
    drops the duplicate. It runs in well under a second at 500k
    vertices, where the loop takes about twelve.
    """
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(m, n, dtype=np.int64), m)
    pool = 2 * (sources - m) * m + m
    pick = (rng.random(len(sources)) * pool).astype(np.int64)
    targets = np.full(len(sources), -1, dtype=np.int64)
    from_seed = pick < m
    targets[from_seed] = pick[from_seed]
    earlier = (pick - m) // 2
    takes_source = ~from_seed & ((pick - m) % 2 == 0)
    targets[takes_source] = sources[earlier[takes_source]]
    pending = np.nonzero(targets < 0)[0]
    while len(pending):
        copied = targets[earlier[pending]]
        done = copied >= 0
        targets[pending[done]] = copied[done]
        pending = pending[~done]
    return sources, targets


def hub_edges(n: int, hubs: int, spokes: int, seed: int
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Edges of ``hubs`` extra high-degree stars (``star_overlay``'s shape)."""
    rng = np.random.default_rng(seed)
    centres = rng.choice(n, size=min(hubs, n), replace=False)
    us, vs = [], []
    for hub in centres:
        leaves = rng.choice(n, size=min(spokes, n - 1), replace=False)
        leaves = leaves[leaves != hub]
        us.append(np.full(len(leaves), hub, dtype=np.int64))
        vs.append(leaves.astype(np.int64))
    return np.concatenate(us), np.concatenate(vs)


def hub_dominated_graph(n: int, m: int, hubs: int, spokes: int, seed: int):
    """Preferential attachment plus a star overlay, one graph build."""
    from repro.graph.builder import build_graph

    su, sv = preferential_attachment_edges(n, m, seed)
    hu, hv = hub_edges(n, hubs, spokes, seed + 1)
    return build_graph((np.concatenate((su, hu)), np.concatenate((sv, hv))),
                       num_vertices=n)


def fingerprint(*parts) -> str:
    """A stable digest of generated inputs (graphs, pairs, op lists)."""
    import hashlib

    digest = hashlib.sha256()
    for part in parts:
        if hasattr(part, "indptr"):
            digest.update(np.ascontiguousarray(part.indptr).tobytes())
            digest.update(np.ascontiguousarray(part.indices).tobytes())
        else:
            digest.update(json.dumps(part, default=str).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Resources and files
# ----------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def work_root() -> Path:
    """Scratch space inside the checkout (ignored by git)."""
    return repo_root() / ".bench_build" / "perfbench"
