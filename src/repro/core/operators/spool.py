"""The partition spool: how out-of-core operator state is held, scattered,
spilled and brought back (§3.4 extended to operator state).

Every keyed sink is two halves around the buffer manager's fragment
store.  :func:`spool_chunk` (the sink's ``consume``) holds chunks in core;
in an out-of-core run, past what fits one leaf, it radix-partitions each
chunk by the operator's keys and registers the pieces as spillable
fragments, which memory pressure migrates device → pinned host → disk on
the copy stream.  :func:`spooled_leaves` (the sink's ``finalize``) brings
one partition back at a time, merges its chunk pieces and re-splits it
with the next salt level while it is over budget, yielding the leaves
depth-first so the caller holds one leaf at a time.  A sink that never
scattered finalizes the in-core way (:func:`finish_held`).

The fan-out, the depth limit and the leaf budget are policy, and this is
the one module that knows them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ...kernels import GTable, concat_gtables, partition_by_keys
from .base import ExecutionContext, dispose_chunk

__all__ = ["PARTITION_FANOUT", "PARTITION_MAX_DEPTH", "spool_chunk", "spooled_leaves"]

# Buckets per radix level.  A scatter is one pass whatever the fan-out, but
# every non-empty bucket is a fragment and, later, a merge, a probe and the
# launches downstream of it: 8 splits a 4x-over-budget build below the leaf
# budget in one level without multiplying launches further.
PARTITION_FANOUT = 8

# Salted re-splits below the first level.  8**4 = 4096 leaves is past any
# pool this repo runs; a leaf still over budget after that is one heavy key,
# which no hash splits, and is processed whole.
PARTITION_MAX_DEPTH = 3


def _leaf_budget(ctx: ExecutionContext) -> int:
    """A leaf may take a quarter of the processing pool's effective limit
    (a memory-pressure window shrinks it): the leaf, its merge or probe
    input and the operator's output are resident together, and a quarter
    leaves the fourth for the pieces still waiting."""
    pool = ctx.device.processing_pool
    limit = pool.capacity if pool.soft_limit is None else min(pool.capacity, pool.soft_limit)
    return max(limit // 4, 1)


def _hold(ctx: ExecutionContext, held_bytes: int) -> bool:
    """The hold decision: a sink keeps its input in core, unpartitioned and
    unspillable, while the ``held_bytes`` fit one leaf."""
    return held_bytes <= _leaf_budget(ctx)


def scattered(state: dict) -> bool:
    """Whether the sink's input outgrew the hold and went to fragments."""
    return "part_chunks" in state


def spool_chunk(
    ctx: ExecutionContext, chunk: GTable, key_indices: Sequence[int], slot: str, state: dict
) -> None:
    """Hold ``chunk`` in ``state["chunks"]``: always in an in-core run or
    for a key-less sink, otherwise while the held total fits one leaf.  The
    chunk that outgrows it scatters every held chunk, and every later chunk
    is scattered on arrival: each piece is registered as a fragment named
    under the run's namespace and ``slot`` before the next is made, then
    the chunk is dropped (the pieces are copies)."""
    if scattered(state):
        held = [chunk]
    else:
        held = state.setdefault("chunks", [])
        held.append(chunk)
        if not (ctx.out_of_core and key_indices) or _hold(ctx, sum(c.nbytes for c in held)):
            return
        state["part_chunks"] = {p: [] for p in range(PARTITION_FANOUT)}
        del state["chunks"]
    by_part = state["part_chunks"]
    seq = state.setdefault("frag_seq", 0)
    for c in held:
        for p, part in enumerate(partition_by_keys(c, key_indices, PARTITION_FANOUT)):
            if part is None:
                continue
            name = f"{state['frag_ns']}/{slot}/c{seq}.{p}"
            seq += 1
            ctx.buffer_manager.put_fragment(name, part)
            by_part[p].append(name)
        dispose_chunk(ctx, c, state["slots"])
    state["frag_seq"] = seq


def finish_held(ctx: ExecutionContext, state: dict, finalize) -> GTable:
    """Finalize a sink that never scattered with its in-core body
    (``finalize``); an out-of-core run then disposes the chunks it held,
    keeping what the output carries (a single held chunk *is* the build
    table)."""
    out = finalize(ctx, state)
    if ctx.out_of_core:
        for chunk in state.get("chunks", ()):
            dispose_chunk(ctx, chunk, state["slots"], successor=out)
    return out


def spooled_leaves(
    ctx: ExecutionContext, key_indices: Sequence[int], state: dict
) -> Iterator[tuple[tuple[int, ...], GTable]]:
    """Yield ``(radix path, table)`` for every leaf partition, depth-first.

    A path is one radix digit per level.  Each yielded table is the
    caller's: register it, or use it and free it, before pulling the next.
    """
    bm = ctx.buffer_manager
    budget = _leaf_budget(ctx)
    for p, names in sorted(state["part_chunks"].items()):
        if not names:
            continue
        merged = concat_gtables([bm.get_fragment(n) for n in names])
        for n in names:
            bm.drop_fragment(n)
        yield from _split_over_budget(merged, key_indices, (p,), budget)


def _split_over_budget(table: GTable, key_indices, path: tuple[int, ...], budget: int):
    level = len(path)
    if level <= PARTITION_MAX_DEPTH and table.nbytes > budget and table.num_rows > 1:
        parts = partition_by_keys(table, key_indices, PARTITION_FANOUT, level=level)
        for q, sub in enumerate(parts):
            if sub is not None:
                yield from _split_over_budget(sub, key_indices, path + (q,), budget)
        table.free()
        return
    yield path, table
