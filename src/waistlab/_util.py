"""Shared helpers: seeded RNG streams, sphere sampling, canonical output formats."""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DomainError, WaistlabError

THREADS_ENV = "WAISTLAB_THREADS"
# the quantiles of every summary, by column name
QUANTILES = {f"q{round(q * 100):02d}": q for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
# float64 values (512 KB) in one chunk of a Monte-Carlo stream.  Chunks
# of 2^14 to 2^18 values sample equally fast, and smaller chunks peak lower.
CHUNK_FLOATS = 1 << 16
# rows in one block of a Monte-Carlo stream.  Block b draws from child b of
# the seed's SeedSequence, so an estimate depends on the seed and
# STREAM_ROWS only, not on the chunk size or on how many threads draw it.
STREAM_ROWS = 4096
# row_norms sums an (..., k) array column by column from ROW_NORM_ROWS
# (k - 2) rows on; below that np.linalg.norm's one call costs less than a
# pass per column (crossover about 57 (k - 2) rows at k = 3-7, measured
# on 2 vCPUs with numpy 2.4).
ROW_NORM_ROWS = 64


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
    try:
        return np.random.SeedSequence(seed)
    except ValueError:  # numpy's message does not name the seed
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}") from None


def worker_count() -> int:
    """The WAISTLAB_THREADS environment variable as a count (>= 1).

    Nothing in waistlab reads it: the harnesses run their trials batched
    on one thread, and the Monte-Carlo samplers' process-wide pool
    (block_reduce) sizes itself from the CPU affinity (cpu_count) at its
    first use, not from this variable.  It is kept only because
    perfbench/run.py records it, until a change to the benchmark drops
    it."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n >= 1:
        return n
    return max(1, os.cpu_count() or 1)


def cpu_count() -> int:
    """CPUs in this process's affinity mask (os.cpu_count() where the
    platform has no affinity call), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Plain serial map.  No harness calls it; it is kept only because
    perfbench/spans.py wraps it, until a change to the benchmark drops it."""
    return [fn(it) for it in items]


def row_norms(X) -> np.ndarray:
    """np.linalg.norm(X, axis=-1), bit for bit, of a float64 array.

    numpy sums a row of fewer than 8 values left to right, whatever the
    array's layout, so squaring and adding one column at a time over all
    rows gives the same bits, without numpy's per-row reduction cost or
    its (..., k) array of squares.  Rows of 8 or more values, which numpy
    sums in an order that depends on the layout, a single vector, and
    arrays of fewer than ROW_NORM_ROWS (k - 2) rows go to np.linalg.norm
    itself."""
    X = np.asarray(X)
    k = X.shape[-1] if X.ndim >= 2 else 0
    if not 0 < k < 8 or X.size < ROW_NORM_ROWS * k * (k - 2) or X.dtype != np.float64:
        return np.linalg.norm(X, axis=-1)
    s = X[..., 0] * X[..., 0]
    for j in range(1, k):
        s += X[..., j] * X[..., j]
    return np.sqrt(s, out=s)


def sphere_points(rng: np.random.Generator, count: int, ambient_dim: int) -> np.ndarray:
    """Uniform points on the unit sphere of R^ambient_dim, shape (count, d)."""
    g = rng.standard_normal((count, ambient_dim))
    norms = row_norms(g)
    bad = norms < 1e-300
    if bad.any():
        g[bad, 0] = 1.0
        norms[bad] = 1.0
    return g / norms[:, None]


def ball_points(rng: np.random.Generator, count: int, dim: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points in the centered Euclidean ball of the given radius:
    the first dim coordinates of uniform points on the sphere of
    R^(dim + 2) (Barthe, Guedon, Mendelson & Naor, Ann. Probab. 33, 2005,
    case p = 2).  Each point is one row of dim + 2 Gaussians, so a
    sampler that draws its points chunk by chunk draws the same stream at
    any chunk size."""
    return radius * sphere_points(rng, count, dim + 2)[:, :dim]


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
    add up to samples, an integer (a Python or NumPy integer) >= 1."""
    try:
        samples = operator.index(samples)
    except TypeError:
        raise DomainError(f"samples must be an integer, got {samples!r}") from None
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    return (min(rows, samples - start) for start in range(0, samples, rows))


def block_rng(ss: np.random.SeedSequence, b: int) -> np.random.Generator:
    """The generator of block b of a Monte-Carlo stream: NumPy's SFC64 bit
    generator seeded by child b of ss by NumPy's spawn-key scheme, the
    child ss.spawn would give, built without spawning, so that ss itself
    is not mutated.  SFC64 draws Gaussians about a fifth faster than
    default_rng's PCG64; every other seeded draw in waistlab (rotations,
    optimizer starts, probes) stays on default_rng."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        ss.entropy, spawn_key=(*ss.spawn_key, b), pool_size=ss.pool_size)))


_HELPERS: ThreadPoolExecutor | None = None
_HELPERS_LOCK = threading.Lock()


def _helpers() -> ThreadPoolExecutor:
    """The process's block_reduce helper pool, cpu_count() - 1 threads,
    created at first use and kept for the life of the process."""
    global _HELPERS
    with _HELPERS_LOCK:
        if _HELPERS is None:
            _HELPERS = ThreadPoolExecutor(max(1, cpu_count() - 1),
                                          thread_name_prefix="waistlab-block")
        return _HELPERS


def block_reduce(samples: int, width: int, chunk, combine, seed=None):
    """The results of chunk(rng, m) over a Monte-Carlo stream of `samples`
    points of `width` float64 values each, folded by combine(a, b):
    chunk(rng, m) draws m points from rng and returns their result.

    The points come in blocks of STREAM_ROWS (the last may be shorter),
    and block b draws from block_rng(seed_sequence(seed), b).  Up to
    min(cpu_count(), blocks) workers reduce the blocks: the calling
    thread and, when there are two or more, helpers from one process-wide
    pool of cpu_count() - 1 threads that lives from the first call that
    needs it to the end of the process.  Each worker claims the next block
    under a lock and stores its result in that block's slot, and the
    caller waits only for blocks already claimed.  So a call from inside a
    block, or a call whose helpers are all busy, is reduced by its caller
    alone and cannot deadlock.  An exception in a block stops further claims and is
    raised in the caller once the claimed blocks are done; the pool
    serves the next call as before.  Each worker draws its block in
    chunks of chunk_rows(width * workers) points, so the values in flight
    stay at CHUNK_FLOATS, and peak memory does not grow with samples.
    The chunk results of a block, then the block results, are combined in
    block order.  When combine is exact, as integer counts that add and
    float maxima are, the result depends on the seed and STREAM_ROWS
    only: not on the chunk size, the worker count or the order in which
    the blocks finish.  Evaluators that hold the GIL, such as a Python
    loop of SLSQP solves, gain nothing from the pool."""
    ss = seed_sequence(seed)
    blocks = list(chunk_sizes(samples, STREAM_ROWS))
    workers = min(cpu_count(), len(blocks))
    rows = chunk_rows(width * workers)

    def reduce_block(b):
        rng = block_rng(ss, b)
        return reduce(combine, (chunk(rng, m) for m in chunk_sizes(blocks[b], rows)))

    results = [None] * len(blocks)
    errors = []
    claimed = done = 0
    cond = threading.Condition()

    def work():
        nonlocal claimed, done
        while True:
            with cond:
                if claimed == len(blocks) or errors:
                    return
                b = claimed
                claimed += 1
            try:
                results[b] = reduce_block(b)
            except BaseException as exc:  # raised again by the caller
                with cond:
                    errors.append(exc)
            with cond:
                done += 1
                cond.notify_all()

    for _ in range(workers - 1):
        _helpers().submit(work)
    work()
    with cond:
        cond.wait_for(lambda: done == claimed)
    if errors:
        raise errors[0]
    return reduce(combine, results)


def hit_fraction(samples: int, width: int, hits, seed=None):
    """Monte-Carlo proportion with its standard error: hits(rng, m) draws
    m points of `width` float64 values each from rng and returns their
    hits (a mask or a count), until `samples` points are drawn.  The
    points are block_reduce's seeded SFC64 blocks, reduced by the caller
    and the process-wide helper pool, and their hit counts add, so the
    estimate depends on the seed and STREAM_ROWS only, not on the chunk
    size or the worker count."""
    total = block_reduce(samples, width, lambda rng, m: int(np.count_nonzero(hits(rng, m))),
                         operator.add, seed)
    p = total / samples
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
