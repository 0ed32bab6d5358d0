"""The SA rule catalog: dynamic invariants the sanitizer layer enforces.

The static lints (RR01–RR08) prove properties of the *source*; the SA
rules prove properties of one *run*: happens-before on the copy stream,
allocation pairing in the RMM pool, ledger-vs-counter agreement, and
schedule-digest purity.  Each rule id names one failure mode so a CI
finding is immediately attributable.

======  ======================================================================
rule    dynamic invariant violated
======  ======================================================================
SA01    stream-read race: a cached entry was read before the host waited on
        its first-chunk ``ready_at`` event (no happens-before edge between
        the copy stream and the consumer)
SA02    in-flight release: an entry with outstanding copy-stream chunks was
        spilled or dropped without joining the stream first (the DMA would
        write into freed memory)
SA03    missing pipeline-end join: a pipeline finalised while overlapped
        loads it consumed were still landing (``complete_loads`` /
        ``wait_copies`` missing before the sink)
SA04    fragment race: a spilled fragment was promoted/read before its
        demotion write on the copy stream was joined (the host copy was not
        yet authoritative)
SA05    memory leak: an owner still held processing-pool bytes, or fragments
        survived, at ``end_run`` / query end / ``drop_namespace``
SA06    double release: a live-generation pool allocation was freed twice
SA07    use-after-free: a cached table or fragment was read through device
        buffers that were already freed
SA08    accounting drift: a live counter (pool in-use, pinned-host bytes,
        fragment tier bytes, caching-region bytes) disagrees with the
        shadow ledger's ground truth
SA09    nondeterminism source touched at runtime: a wall-clock or global-
        state RNG call fired during a sanitized run (the dynamic complement
        of lints RR01/RR02)
SA10    tie-break-sensitive schedule: a serving/fleet digest changed under a
        repeat run or a semantics-free perturbation (permuted policy
        tie-breaks, permuted mapping insertion order)
======  ======================================================================
"""

from __future__ import annotations

__all__ = ["SA_RULES", "SA_SEVERITY"]

SA_RULES = {
    "SA01": "stream-read race: entry read before its ready_at event was waited",
    "SA02": "in-flight entry spilled/dropped without joining its copy-stream chunks",
    "SA03": "pipeline finalised with consumed overlapped loads never joined",
    "SA04": "fragment read before its demotion copy-stream write was joined",
    "SA05": "memory leak: owner bytes or fragments survive end-of-run cleanup",
    "SA06": "double release of a live processing-pool allocation",
    "SA07": "use-after-free: table/fragment read through freed device buffers",
    "SA08": "accounting drift between live counters and the shadow ledger",
    "SA09": "wall-clock or global-RNG touch during a sanitized run",
    "SA10": "schedule digest not invariant under permuted tie-breaks/reruns",
}

# Every SA violation is an error: the clean suite must report zero
# findings, so any firing fails CI outright.
SA_SEVERITY = {rule: "error" for rule in SA_RULES}
