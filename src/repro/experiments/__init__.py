"""Experiment drivers regenerating the paper's tables and figures.

Each module is runnable (``python -m repro.experiments.table1``) and
exposes a ``compute_*`` function the benchmark harness reuses.  Table 1
and Table 2 take one :class:`~repro.flow.session.Session` per circuit,
already built with its :class:`~repro.flow.pipeline.PipelineConfig`
and catalog scale.

=============  =====================================================
module         regenerates
=============  =====================================================
``table1``     Table 1 — reseeding solutions vs the GATSBY baseline
``table2``     Table 2 — Detection Matrix reduction statistics
``figure2``    Figure 2 — reseedings vs test length trade-off
=============  =====================================================

All drivers run on the synthetic ISCAS-sized stand-ins (see
:mod:`repro.circuits.catalog`); ``--scale`` trades fidelity for
runtime (1.0 = full ISCAS sizes).
"""

# The drivers are runnable modules; import from them directly.
__all__ = []
