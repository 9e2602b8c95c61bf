"""Slow, obviously-correct references the product is pinned against.

None of these engines runs in the product; each exists so a
differential test (or a benchmark floor) has an independent answer to
compare with:

* :mod:`oracles.podem` — the recursive PODEM, decision for decision the
  search every lane of :class:`~repro.atpg.batch_podem.BatchPodem` makes;
* :mod:`oracles.serial` — the per-fault fault simulator
  (:class:`~oracles.serial.SerialFaultSimulator`), the reference of
  :class:`~repro.sim.batch.BatchFaultSimulator`;
* :mod:`oracles.reference` — a single-pattern interpreter with fault
  injection (:class:`~oracles.reference.ReferenceSimulator`);
* :mod:`oracles.sequential` — a clocked simulator of the raw sequential
  netlists, the reference for the full-scan contract;
* :mod:`oracles.scalar` — scalar references of the packed kernels (gate
  evaluation, 0/1/X simulation, pattern and plane packing).

``pyproject.toml`` puts ``tests/`` on the pytest path, so both
``tests/`` and ``benchmarks/`` import them as ``oracles.<module>``.
"""
