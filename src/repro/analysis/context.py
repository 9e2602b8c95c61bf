"""Shared file-discovery and parse cache for one analysis run.

Every rule receives the same :class:`AnalysisContext`: it walks the
tree once, parses each Python file once (``ast.parse`` results are
cached), and hands out repo-relative POSIX paths so findings render
identically on every platform.  Rules never touch the filesystem
directly — that keeps them trivially testable against synthetic
fixture trees (``tests/test_analysis.py`` builds throwaway roots).
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = ["AnalysisContext"]

#: Top-level directories scanned for Python sources.
SOURCE_DIRS = ("src", "tests", "tools", "benchmarks", "examples")

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


class AnalysisContext:
    """One run's view of the repository: files, sources, ASTs."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root).resolve()
        self._sources: dict[Path, str] = {}
        self._lines: dict[Path, list[str]] = {}
        self._trees: dict[Path, ast.Module | None] = {}
        self._python_files: list[Path] | None = None

    # -- discovery -----------------------------------------------------

    def python_files(self) -> list[Path]:
        """Every ``.py`` file under the source directories, sorted."""
        if self._python_files is None:
            files: list[Path] = []
            for top in SOURCE_DIRS:
                base = self.root / top
                if not base.is_dir():
                    continue
                files.extend(
                    p
                    for p in base.rglob("*.py")
                    if not _SKIP_DIRS.intersection(p.parts)
                )
            self._python_files = sorted(files)
        return self._python_files

    def src_files(self) -> list[Path]:
        """The library sources only (``src/repro/**``)."""
        prefix = self.root / "src" / "repro"
        return [p for p in self.python_files() if prefix in p.parents]

    def markdown_files(self) -> list[Path]:
        """The documentation set the link checker covers: the README
        plus the whole ``docs/`` tree."""
        files: list[Path] = []
        readme = self.root / "README.md"
        if readme.is_file():
            files.append(readme)
        docs = self.root / "docs"
        if docs.is_dir():
            files.extend(sorted(docs.rglob("*.md")))
        return files

    # -- cached content ------------------------------------------------

    def rel(self, path: Path) -> str:
        """``path`` relative to the repo root, POSIX separators."""
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def source(self, path: Path) -> str:
        if path not in self._sources:
            self._sources[path] = path.read_text(encoding="utf-8")
        return self._sources[path]

    def lines(self, path: Path) -> list[str]:
        if path not in self._lines:
            self._lines[path] = self.source(path).splitlines()
        return self._lines[path]

    def line_text(self, path: Path, line: int) -> str:
        lines = self.lines(path)
        return lines[line - 1] if 1 <= line <= len(lines) else ""

    def tree(self, path: Path) -> ast.Module | None:
        """The parsed AST, or ``None`` when the file does not parse
        (the engine reports unparsable files once, as findings)."""
        if path not in self._trees:
            try:
                self._trees[path] = ast.parse(
                    self.source(path), filename=str(path)
                )
            except SyntaxError:
                self._trees[path] = None
        return self._trees[path]
