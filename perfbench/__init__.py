"""perfbench: the two-clock benchmark (host cost + simulated time).

See README.md in this directory.  Nothing here is imported by ``repro``.
"""
