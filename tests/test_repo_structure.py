"""Meta-tests: the repository keeps its documented structure.

These pin DESIGN.md's promises - every subpackage documented, every
paper experiment mapped to a benchmark file, every example runnable -
so documentation drift fails CI rather than accumulating silently.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
REPO = ROOT.parents[1]


def _iter_modules():
    for info in pkgutil.walk_packages([str(ROOT)], prefix="repro."):
        yield info.name


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for name in _iter_modules():
            mod = importlib.import_module(name)
            if not (mod.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_documented(self):
        """Top-level public defs in every module carry docstrings."""
        undocumented = []
        for py in ROOT.rglob("*.py"):
            tree = ast.parse(py.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name.startswith("_"):
                        continue
                    if ast.get_docstring(node) is None:
                        undocumented.append(f"{py.name}:{node.name}")
        assert not undocumented, undocumented


class TestExperimentIndex:
    BENCH_FILES = [
        "bench_fig02c_simulators.py",
        "bench_fig07a_accuracy.py",
        "bench_fig07b_c18.py",
        "bench_fig08_software.py",
        "bench_fig09_memory.py",
        "bench_fig10_hydrogen_chain.py",
        "bench_fig11_kernels.py",
        "bench_fig12_13_scaling.py",
        "bench_sec5_ligands.py",
        "bench_ablations.py",
    ]

    def test_every_experiment_bench_exists(self):
        bench_dir = REPO / "benchmarks"
        for name in self.BENCH_FILES:
            assert (bench_dir / name).is_file(), f"missing {name}"

    def test_design_references_every_bench(self):
        design = (REPO / "DESIGN.md").read_text()
        for name in self.BENCH_FILES:
            assert name in design, f"DESIGN.md does not mention {name}"

    def test_experiments_doc_covers_every_figure(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for tag in ("Fig. 2(c)", "Fig. 7(a)", "Fig. 7(b)", "Fig. 8",
                    "Fig. 9", "Fig. 10", "Fig. 11", "Figs. 12",
                    "Sec. V", "Ablations"):
            assert tag in experiments, f"EXPERIMENTS.md missing {tag}"


class TestExamples:
    def test_examples_present(self):
        examples = REPO / "examples"
        expected = ["quickstart.py", "hydrogen_ring_dmet.py",
                    "c18_bla_scan.py", "ligand_binding.py",
                    "sunway_scaling.py", "h2_dissociation.py"]
        for name in expected:
            assert (examples / name).is_file(), f"missing example {name}"

    def test_examples_have_main_guard_and_docstring(self):
        for py in (REPO / "examples").glob("*.py"):
            text = py.read_text()
            assert '__name__ == "__main__"' in text, py.name
            tree = ast.parse(text)
            assert ast.get_docstring(tree), f"{py.name} lacks a docstring"


class TestPackaging:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_docs_exist(self):
        assert (REPO / "docs" / "ARCHITECTURE.md").is_file()
        assert (REPO / "docs" / "ALGORITHMS.md").is_file()
        assert (REPO / "README.md").is_file()


def _fenced_cli_examples():
    """``(where, argv)`` for every ``python -m repro`` line in a code block.

    Scans the fenced blocks of README.md, docs/*.md and examples/README.md,
    joins backslash continuations, and drops a trailing ``# comment`` and
    ``&`` before splitting the arguments after ``python -m repro``.
    """
    import shlex

    docs = [REPO / "README.md", REPO / "examples" / "README.md",
            *sorted((REPO / "docs").glob("*.md"))]
    found = []
    for doc in docs:
        in_block = False
        pending = ""
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_block, pending = not in_block, ""
                continue
            if not in_block:
                continue
            line = pending + line
            if line.rstrip().endswith("\\"):
                pending = line.rstrip()[:-1] + " "
                continue
            pending = ""
            marker = "python -m repro "
            if marker not in line:
                continue
            command = line.split(marker, 1)[1].split("#", 1)[0].strip()
            command = command.removesuffix("&").strip()
            found.append((f"{doc.relative_to(REPO)}:{lineno}",
                          shlex.split(command)))
    return found


class TestDocumentedCommands:
    def test_cli_examples_parse(self):
        """Documented CLI invocations stay valid against the real parser."""
        from repro.__main__ import build_parser

        examples = _fenced_cli_examples()
        assert examples, "no fenced `python -m repro` examples found"
        parser = build_parser()
        broken = []
        for where, argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                broken.append(f"{where}: {' '.join(argv)}")
        assert not broken, "CLI examples that no longer parse:\n" + \
            "\n".join(broken)
