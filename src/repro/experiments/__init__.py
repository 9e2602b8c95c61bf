"""Experiment drivers regenerating the paper's tables and figures.

Each one runs as a ``repro`` subcommand (``python -m repro table1``)
and exposes the ``compute_*``/``render_*`` functions the command and
the benchmark harness share.  Table 1 and Table 2 take an iterable of
:class:`~repro.flow.session.Session` objects, one per circuit, already
built with its :class:`~repro.flow.pipeline.PipelineConfig` and catalog
scale, and keep none of them past its row.  Figure 2 is a
:func:`~repro.flow.sweep.sweep` over T that ``figure2`` renders.

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

# Import the drivers' functions from their modules directly.
__all__ = []
