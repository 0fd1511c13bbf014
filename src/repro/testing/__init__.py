"""Differential correctness harness.

Seeded generators (:mod:`.generators`), brute-force references
(:mod:`.reference`), equivalence oracles (:mod:`.oracles`), a minimizing
shrinker (:mod:`.shrinker`) and a budgeted fuzz CLI (:mod:`.fuzz`,
``python -m repro.testing.fuzz``).  See ``docs/testing.md``.
"""
