"""Three-valued (0/1/X) word-parallel logic simulation.

The 2-valued view assumes every net is a known 0 or 1 — true for the
paper's fully scanned, deterministic world, false the moment a circuit
has unscanned state, bus contention, or an uninitialised RAM output.
Unknowns travel as :class:`~repro.utils.bitvec.PackedPlanes` — two
``uint64`` bit-planes per signal (value + care) side by side on the word
axis, pattern ``64*w + k`` at bit ``k`` of word ``w``, the exact lane
layout of the 2-valued packing — and the packed carrier picks the
logic: every simulator runs at the carrier's plane count ``m``.

* :func:`logic_sim_3v` is true-value simulation of planes: the one
  levelized walk, :meth:`~repro.sim.logic.CompiledCircuit.simulate`, at
  ``m = 2``, with the one gate kernel
  (:func:`~repro.circuit.gates.eval_gates`);
* :func:`logic_sim_3v_scalar` is its from-the-definition oracle.

Fault simulation with unknowns needs no engine of its own: hand the one
:class:`~repro.sim.batch.BatchFaultSimulator` planes, and it detects
**pessimistically** — a fault counts as detected by a pattern only
where the good and faulty machines are both *known* and differ, since an
X on either side would mask at the compactor.  Hence 3-valued coverage
≤ 2-valued coverage, with bit-identical equality on X-free input (the
differential suite pins both).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gates import eval_gate_3v_scalar
from repro.circuit.netlist import Circuit
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import PackedPlanes, PlanesLike, as_planes
from repro.utils.kernels import kernel

__all__ = ["logic_sim_3v", "logic_sim_3v_scalar"]


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


def logic_sim_3v_scalar(circuit: Circuit, codes: np.ndarray) -> np.ndarray:
    """Scalar three-valued oracle: one gate evaluation at a time.

    ``codes`` has shape ``(n_inputs, n_patterns)`` over 0/1/2 (2 = X);
    the result has shape ``(n_outputs, n_patterns)``.  Deliberately a
    per-pattern Python topological walk over
    :func:`~repro.circuit.gates.eval_gate_3v_scalar` — the
    from-the-definition reference the differential suite (and the
    throughput floor) pins :func:`logic_sim_3v` against.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2 or codes.shape[0] != circuit.n_inputs:
        raise ValueError(
            f"codes must be (n_inputs, n_patterns) = ({circuit.n_inputs}, *), "
            f"got {codes.shape}"
        )
    n_patterns = codes.shape[1]
    out = np.empty((circuit.n_outputs, n_patterns), dtype=np.uint8)
    topo = circuit.topo_order()
    input_index = {name: i for i, name in enumerate(circuit.inputs)}
    for p in range(n_patterns):
        values: dict[str, int] = {
            name: int(codes[i, p]) for name, i in input_index.items()
        }
        for name in topo:
            if name in values:
                continue
            gate = circuit.gates[name]
            values[name] = eval_gate_3v_scalar(
                gate.gtype, [values[f] for f in gate.fanins]
            )
        for k, name in enumerate(circuit.outputs):
            out[k, p] = values[name]
    return out

