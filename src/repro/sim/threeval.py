"""Three-valued (0/1/X) word-parallel logic simulation.

The 2-valued view assumes every net is a known 0 or 1 — true for the
paper's fully scanned, deterministic world, false the moment a circuit
has unscanned state, bus contention, or an uninitialised RAM output.
Unknowns travel as :class:`~repro.utils.bitvec.PackedPlanes` — two
``uint64`` bit-planes per signal (value + care) side by side on the word
axis, pattern ``64*w + k`` at bit ``k`` of word ``w``, the exact lane
layout of the 2-valued packing — and the packed carrier picks the
logic: every simulator runs at the carrier's plane count ``m``.

:func:`logic_sim_3v` is true-value simulation of planes: the one
levelized walk, :meth:`~repro.sim.logic.CompiledCircuit.simulate`, at
``m = 2``, with the one gate kernel
(:func:`~repro.circuit.gates.eval_gates`).  Its from-the-definition
oracle is a test-suite reference (``tests/oracles/scalar.py``).

Fault simulation with unknowns needs no engine of its own: hand the one
:class:`~repro.sim.batch.BatchFaultSimulator` planes, and it detects
**pessimistically** — a fault counts as detected by a pattern only
where the good and faulty machines are both *known* and differ, since an
X on either side would mask at the compactor.  Hence 3-valued coverage
≤ 2-valued coverage, with bit-identical equality on X-free input (the
differential suite pins both).
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import PackedPlanes, PlanesLike, as_planes
from repro.utils.kernels import kernel

__all__ = ["logic_sim_3v"]


@kernel
def logic_sim_3v(circuit: Circuit | CompiledCircuit, planes: PlanesLike) -> PackedPlanes:
    """Three-valued true-value simulation; returns the primary-output
    planes (row ``k`` = ``circuit.outputs[k]``).

    Convenience over :meth:`~repro.sim.logic.CompiledCircuit.simulate`
    at ``m = 2``; ``circuit`` may be already compiled, so callers that
    simulate one circuit repeatedly compile it once.  Accepts anything
    :func:`~repro.utils.bitvec.as_planes` does — X-free 2-valued
    patterns pass through with care = all ones, and the value plane then
    matches the 2-valued engine bit for bit.
    """
    compiled = circuit if isinstance(circuit, CompiledCircuit) else CompiledCircuit(circuit)
    planes = as_planes(planes, compiled.n_inputs)
    state = compiled.simulate(planes.words, planes.m)[compiled.output_ids]
    n_words = planes.n_words
    mask = planes.tail_mask()
    return PackedPlanes(
        state[:, :n_words] & mask, state[:, n_words:] & mask, planes.n_patterns
    )
