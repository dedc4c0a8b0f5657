"""Differential equivalence harness for the streaming CDI loop.

Every suite here reduces to one oracle: the incremental state an
arbitrary admitted stream builds must be *byte-identical* — same JSON
dump, same float bit patterns — to a from-scratch batch
:class:`~repro.pipeline.daily.DailyCdiJob` run over the same events,
on both compute paths, including after a crash/resume at any
tick boundary.
"""
