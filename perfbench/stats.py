"""Order statistics the benchmark reports, with their sample guards.

Every timing is reported as a median and the highest percentile that
still has at least ten samples beyond it; :func:`percentile` refuses a
percentile that does not. A latency percentile over a mix of job
classes is only steady when it falls inside one class, so
:func:`check_inside_class` refuses a percentile that sits on a class
boundary.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Share of the ranks around a percentile that must belong to its class.
MIN_CLASS_SHARE = 0.8
#: How far (a share of the sample) a percentile must sit inside its
#: class's ranks, and the width of the rank window checked around it.
CLASS_MARGIN = 0.05


class SampleError(ValueError):
    """A percentile was asked of a sample too small (or mixed) for it."""


def beyond(count: int, q: float) -> int:
    """How many of ``count`` ranked samples lie beyond percentile ``q``."""
    return count - math.ceil(q / 100.0 * count)


def percentile(values: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Linearly interpolated ``q``-th percentile of ``values``.

    Raises :class:`SampleError` unless at least ``min_beyond`` samples
    rank beyond it (the median of a large sample always qualifies).
    """
    if not values:
        raise SampleError("percentile of an empty sample")
    tail = beyond(len(values), q)
    if tail < min_beyond:
        raise SampleError(
            f"p{q:g} of {len(values)} samples has {tail} beyond it "
            f"(need {min_beyond})")
    ranked = sorted(values)
    position = q / 100.0 * (len(ranked) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def check_inside_class(samples: list[tuple[float, str]], q: float) -> str:
    """The job class percentile ``q`` falls in; raises on a boundary.

    ``samples`` are ``(latency, class)`` pairs. Ranked by their median
    latency, the classes split the ranks into one interval each, sized
    by their share of the mix. The percentile's position must lie at
    least :data:`CLASS_MARGIN` (a share of the sample) inside one
    interval — otherwise a small shift in the mix moves the percentile
    from one class's latency to another's, and the number swings with
    it — and at least :data:`MIN_CLASS_SHARE` of the samples within
    :data:`CLASS_MARGIN` of that position must belong to that class. A
    stray slow job of another class does not move the percentile;
    classes whose latencies overlap where it sits do.
    """
    if not samples:
        raise SampleError("class check on an empty sample")
    by_class: dict[str, list[float]] = {}
    for value, cls in samples:
        by_class.setdefault(cls, []).append(value)
    position = q / 100.0 * (len(samples) - 1)
    width = CLASS_MARGIN * len(samples)
    start = 0
    for cls in sorted(by_class, key=lambda c: statistics.median(by_class[c])):
        end = start + len(by_class[cls])
        if start <= position < end:
            break
        start = end
    if position - start < width or end - 1 - position < width:
        raise SampleError(
            f"p{q:g} sits on a class boundary: rank {position:g} of "
            f"{len(samples)} is within {width:g} of the {cls!r} ranks "
            f"{start}..{end - 1}")
    ranked = [c for _value, c in sorted(samples)]
    window = ranked[max(0, math.floor(position - width)):
                    math.ceil(position + width) + 1]
    share = window.count(cls) / len(window)
    if share < MIN_CLASS_SHARE:
        raise SampleError(
            f"p{q:g} sits on a class boundary: {share:.0%} of the ranks "
            f"around {position:g} are {cls!r}, the class the mix puts there")
    return cls


def spread(values: list[float]) -> dict:
    """Median, quartiles and inter-quartile spread as a share of the median.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    exclusive method), the same figures an A/A comparison is judged on.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "samples": len(values)}
