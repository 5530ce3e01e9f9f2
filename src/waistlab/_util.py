"""Shared helpers: seeded RNG streams, sphere sampling, canonical output formats."""

from __future__ import annotations

import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DomainError, WaistlabError

THREADS_ENV = "WAISTLAB_THREADS"
# the quantiles of every summary, by column name
QUANTILES = {f"q{round(q * 100):02d}": q for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
# float64 values (512 KB) in one chunk of a Monte-Carlo stream.  Chunks
# of 2^14 to 2^18 values sample equally fast, and smaller chunks peak lower.
CHUNK_FLOATS = 1 << 16


def read_field(cast, value, key, error):
    """cast(value), where a value that cast rejects raises error naming key."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        why = exc if isinstance(exc, WaistlabError) else f"cannot read {value!r} ({exc})"
        raise error(f"{key}: {why}") from exc


def strict_bool(value):
    """value as a bool when it is one (JSON true or false); any other value,
    such as the string "false" or the number 0, raises TypeError."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise TypeError(f"expected true or false, got {type(value).__name__}")


def seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def worker_count() -> int:
    """The WAISTLAB_THREADS environment variable as a count (>= 1).

    Nothing in waistlab reads it: every harness runs its trials batched
    on one thread.  It is kept only because perfbench/run.py records it,
    until a change to the benchmark drops it."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n >= 1:
        return n
    return max(1, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Plain serial map.  No harness calls it; it is kept only because
    perfbench/spans.py wraps it, until a change to the benchmark drops it."""
    return [fn(it) for it in items]


def sphere_points(rng: np.random.Generator, count: int, ambient_dim: int) -> np.ndarray:
    """Uniform points on the unit sphere of R^ambient_dim, shape (count, d)."""
    g = rng.standard_normal((count, ambient_dim))
    norms = np.linalg.norm(g, axis=1)
    bad = norms < 1e-300
    if bad.any():
        g[bad, 0] = 1.0
        norms[bad] = 1.0
    return g / norms[:, None]


def ball_points(rng: np.random.Generator, count: int, dim: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points in the centered Euclidean ball of the given radius."""
    u = sphere_points(rng, count, dim)
    r = rng.random(count) ** (1.0 / dim)
    return u * (radius * r)[:, None]


def bernoulli_se(p_hat: float, n: int) -> float:
    """Standard error of an empirical proportion."""
    p = min(max(float(p_hat), 0.0), 1.0)
    return float(np.sqrt(p * (1.0 - p) / max(n, 1)))


def chunk_rows(width: int) -> int:
    """Rows per chunk of a sampler whose rows hold `width` float64 values:
    CHUNK_FLOATS // width, at least 1.

    A sampler that draws its rows from one row-major stream and reduces
    them row by row gives the same bits at any chunk size, so the chunk
    bounds its memory, whatever the sample count, and changes nothing else."""
    return max(1, CHUNK_FLOATS // width)


def chunk_sizes(samples: int, rows: int):
    """Sizes, one at a time, of consecutive chunks of at most `rows` that
    add up to samples (>= 1)."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    return (min(rows, samples - start) for start in range(0, samples, rows))


def hit_fraction(samples: int, batch: int, hits):
    """Monte-Carlo proportion with its standard error: hits(m) draws m
    points and counts the hits, called on chunks of at most `batch`
    points until `samples` points are drawn.  Peak memory is that of one
    chunk; with a batch from chunk_rows it does not grow with samples."""
    count = sum(int(np.count_nonzero(hits(m))) for m in chunk_sizes(samples, batch))
    p = count / samples
    return p, bernoulli_se(p, samples)


def fmt_float(x) -> str:
    """Fixed 17-significant-digit decimal form; canonical across runs."""
    return format(float(x), ".17g")


def _canon(obj, parts: list[str]) -> None:
    """Append the canonical JSON of obj to parts: the exact types that
    reports hold first, by type identity, then every other type by
    isinstance (see _canon_other)."""
    kind = type(obj)
    if kind is float or kind is np.float64:
        if math.isfinite(obj):
            parts.append(format(float(obj), ".17g"))
        else:
            parts.append('"nan"' if obj != obj else '"inf"' if obj > 0 else '"-inf"')
    elif kind is dict:
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(", ")
            parts.append(encode_basestring_ascii(str(key)))
            parts.append(": ")
            _canon(obj[key], parts)
        parts.append("}")
    elif kind is list or kind is tuple:
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _canon(item, parts)
        parts.append("]")
    elif kind is str:
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif kind is int:
        parts.append(str(obj))
    else:
        _canon_other(obj, parts)


def _canon_other(obj, parts: list[str]) -> None:
    """_canon of the types it does not dispatch on exactly: numpy integers
    and floats, arrays, and subclasses of the builtin types."""
    if isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _canon(float(obj), parts)
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, np.ndarray):
        _canon(obj.tolist(), parts)
    elif isinstance(obj, dict):
        _canon(dict(obj), parts)
    elif isinstance(obj, (list, tuple)):
        _canon(list(obj), parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, .17g floats, fixed separators."""
    parts: list[str] = []
    _canon(obj, parts)
    return "".join(parts)


def csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    """CSV with '\\n' newlines and canonical cell formatting (byte-stable)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(c) for c in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def quantile_summary(values) -> dict:
    """Count, min, max, mean and the QUANTILES of the values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"count": 0}
    out = {"count": int(arr.size), "min": float(arr.min()), "max": float(arr.max()),
           "mean": float(arr.mean())}
    out.update(zip(QUANTILES, np.quantile(arr, list(QUANTILES.values())).tolist()))
    return out
