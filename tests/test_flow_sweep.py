"""Tests for the sweep orchestrator (grids, cache warm-start, pool)."""

from __future__ import annotations

import importlib

import pytest

from repro.flow.pipeline import PipelineConfig
from repro.flow.session import ArtifactCache
from repro.flow.sweep import sweep

CONFIG = PipelineConfig(evolution_length=8, max_random_patterns=128)
CIRCUITS = ["c17", "s27"]
TPGS = ["adder", "multiplier"]


@pytest.fixture(scope="module")
def cold_grid():
    return sweep(CIRCUITS, TPGS, base_config=CONFIG)


class TestSweepGrid:
    def test_full_grid_in_deterministic_order(self, cold_grid):
        cells = [(o.circuit, o.tpg, o.config_index) for o in cold_grid]
        assert cells == [
            ("c17", "adder", 0),
            ("c17", "multiplier", 0),
            ("s27", "adder", 0),
            ("s27", "multiplier", 0),
        ]

    def test_nothing_cached_without_cache(self, cold_grid):
        assert cold_grid.n_cached == 0

    def test_get_cell(self, cold_grid):
        outcome = cold_grid.get("s27", "adder")
        assert outcome.circuit == "s27"
        assert outcome.result.tpg_name == "adder"
        with pytest.raises(KeyError):
            cold_grid.get("s27", "lfsr")

    def test_atpg_shared_within_circuit(self, cold_grid):
        a = cold_grid.get("c17", "adder").result
        b = cold_grid.get("c17", "multiplier").result
        assert a.atpg is b.atpg

    def test_evolution_lengths_expand_configs(self):
        grid = sweep(
            ["c17"], ["adder"], base_config=CONFIG, evolution_lengths=[4, 8]
        )
        assert [o.config.evolution_length for o in grid] == [4, 8]
        assert all(
            o.config.max_random_patterns == CONFIG.max_random_patterns
            for o in grid
        )

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        # ``repro.flow.sweep`` the attribute is the function; the module
        # is what holds the pool class.
        sweep_mod = importlib.import_module("repro.flow.sweep")

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep(CIRCUITS, TPGS, base_config=CONFIG, workers=workers)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([], ["adder"])
        with pytest.raises(ValueError):
            sweep(["c17"], [])


class TestSweepCache:
    def test_warm_cache_skips_atpg(self, tmp_path, cold_grid):
        """The acceptance scenario: 2 circuits x 2 TPGs, cold then warm —
        the warm sweep must serve every cell from the cache and never
        re-run (nor even re-load) ATPG, asserted via the hit counters."""
        cold_cache = ArtifactCache(tmp_path)
        cold = sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=cold_cache)
        assert cold.n_cached == 0
        assert cold_cache.misses_for("pipeline_result") == 4

        warm_cache = ArtifactCache(tmp_path)
        warm = sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=warm_cache)
        assert warm.n_cached == len(warm) == 4
        assert warm_cache.hits_for("pipeline_result") == 4
        assert warm_cache.misses_for("pipeline_result") == 0
        # ATPG was skipped outright: the cached full results short-circuit
        # before the ATPG artefact is even consulted.
        assert warm_cache.hits_for("atpg_result") == 0
        assert warm_cache.misses_for("atpg_result") == 0
        for a, b in zip(cold, warm):
            assert a.result.n_triplets == b.result.n_triplets
            assert a.result.test_length == b.result.test_length
            assert a.result.selected_triplets == b.result.selected_triplets

    def test_partial_warm_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        sweep(["c17"], ["adder"], base_config=CONFIG, cache=cache)
        grid = sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=ArtifactCache(tmp_path))
        assert grid.n_cached == 1
        assert grid.get("c17", "adder").from_cache

    def test_cache_accepts_plain_path(self, tmp_path):
        sweep(["c17"], ["adder"], base_config=CONFIG, cache=tmp_path)
        grid = sweep(["c17"], ["adder"], base_config=CONFIG, cache=str(tmp_path))
        assert grid.n_cached == 1


class TestSweepParallel:
    def test_process_pool_matches_serial(self, cold_grid):
        grid = sweep(CIRCUITS, TPGS, base_config=CONFIG, workers=2)
        assert len(grid) == len(cold_grid)
        for parallel, serial in zip(grid, cold_grid):
            assert parallel.circuit == serial.circuit
            assert parallel.tpg == serial.tpg
            assert parallel.result.n_triplets == serial.result.n_triplets
            assert parallel.result.test_length == serial.result.test_length
            assert (
                parallel.result.selected_triplets
                == serial.result.selected_triplets
            )

    def test_process_pool_uses_cache_dir(self, tmp_path):
        sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=tmp_path, workers=2)
        warm = sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=tmp_path, workers=2)
        assert warm.n_cached == 4

    def test_pool_workers_write_the_sharded_layout(self, tmp_path):
        """Pool workers open their own cache on the directory: every
        entry lands under ``objects/``, where a serial re-sweep through
        an :class:`ArtifactCache` object finds all of them."""
        sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=ArtifactCache(tmp_path), workers=2)
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        assert all(path.parent.parent == tmp_path / "objects" for path in entries)
        warm = sweep(CIRCUITS, TPGS, base_config=CONFIG, cache=ArtifactCache(tmp_path))
        assert warm.n_cached == 4


class TestTradeoffClient:
    """The Figure-2 pattern: one circuit, one TPG, a sweep of T."""

    def test_tradeoff_unchanged_by_redesign(self):
        points = sweep(["c17"], ["adder"], base_config=CONFIG, evolution_lengths=[1, 4, 16])
        assert [p.config.evolution_length for p in points] == [1, 4, 16]
        counts = [p.result.n_triplets for p in points]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_tradeoff_with_cache(self, tmp_path):
        def points(cache):
            grid = sweep(
                ["c17"], ["adder"], base_config=CONFIG, evolution_lengths=[2, 8],
                cache=cache,
            )
            return [
                (o.config.evolution_length, o.result.n_triplets, o.result.test_length)
                for o in grid
            ]

        first = points(ArtifactCache(tmp_path))
        warm_cache = ArtifactCache(tmp_path)
        second = points(warm_cache)
        assert warm_cache.hits_for("pipeline_result") == 2
        assert first == second


class TestPrefixReuse:
    """One session sweeping T extends or truncates each pool's
    first-detection table (a length-T test set is a prefix of every
    longer one); every answer equals a fresh session's."""

    LENGTHS = (7, 64, 100, 255, 256, 600)
    ORDERS = {
        "ascending": sorted(LENGTHS),
        "descending": sorted(LENGTHS, reverse=True),
        "shuffled": [100, 600, 7, 256, 64, 255],
    }

    @pytest.fixture(scope="class")
    def fresh(self):
        """The circuit, its ATPG, and each length run in its own session."""
        from dataclasses import replace

        from repro.circuits import load_circuit
        from repro.flow.session import Session

        circuit = load_circuit("c880", scale=0.2)
        atpg = Session(circuit, CONFIG).atpg_result
        runs = {
            length: Session(circuit, CONFIG, atpg_result=atpg).run(
                "adder", replace(CONFIG, evolution_length=length)
            )
            for length in self.LENGTHS
        }
        return circuit, atpg, runs

    @staticmethod
    def _document(result) -> dict:
        document = result.to_dict()
        document.pop("timings")
        return document

    @pytest.mark.parametrize("order", list(ORDERS))
    def test_sweep_order_changes_no_answer(self, fresh, order):
        from repro.flow.session import Session

        circuit, atpg, runs = fresh
        lengths = self.ORDERS[order]
        session = Session(circuit, CONFIG, atpg_result=atpg)
        grid = sweep(
            [circuit.name], ["adder"], base_config=CONFIG,
            evolution_lengths=lengths, sessions={circuit.name: session},
        )
        for length, outcome in zip(lengths, grid):
            got, want = outcome.result, runs[length]
            offsets = got.detection_matrix.offsets
            assert offsets.dtype == want.detection_matrix.offsets.dtype
            assert (offsets == want.detection_matrix.offsets).all(), length
            assert got.trimmed == want.trimmed
            assert self._document(got) == self._document(want)

    def test_reuse_is_reported_and_shorter_tables_simulate_nothing(self, fresh):
        from dataclasses import replace

        from repro.flow.session import Session

        circuit, atpg, _ = fresh
        events = []
        session = Session(circuit, CONFIG, atpg_result=atpg, progress=events.append)
        for length in (100, 256, 64):
            result = session.run("adder", replace(CONFIG, evolution_length=length))
        done = [
            event.attrs for event in events
            if (event.stage, event.status) == ("detection_matrix", "done")
        ]
        assert [attrs["reused_patterns"] for attrs in done] == [0, 100, 64]
        assert done[1]["detect_cells"] > 0
        # T = 64 is derived from the stored T = 256 table.
        assert (done[2]["detect_cells"], done[2]["words_simulated"]) == (0, 0)
        # The memo keeps the longest table, read-only and shared with
        # the matrix that holds it.
        ((stored, table),) = session._tables.values()
        assert stored == 256
        assert not table.flags.writeable
        assert not result.detection_matrix.offsets.flags.writeable
