"""Repository-coherence checks: docs, benches and drivers stay in sync."""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class TestDocsReferenceRealFiles:
    @pytest.mark.parametrize("doc", ["DESIGN.md", "EXPERIMENTS.md", "README.md"])
    def test_referenced_bench_files_exist(self, doc):
        text = (ROOT / doc).read_text()
        for match in re.findall(r"benchmarks/test_[a-z0-9_]+\.py", text):
            assert (ROOT / match).exists(), f"{doc} references missing {match}"

    def test_readme_module_paths_exist(self):
        _assert_module_paths_exist("README.md")

    @pytest.mark.parametrize(
        "doc",
        ["DESIGN.md", "CONTRIBUTING.md"]
        + sorted(f"docs/{path.name}" for path in (ROOT / "docs").glob("*.md")),
    )
    def test_doc_module_paths_exist(self, doc):
        _assert_module_paths_exist(doc)


def _assert_module_paths_exist(doc):
    """Every backticked ``repro.x.y`` in ``doc`` is a module or attribute."""
    text = (ROOT / doc).read_text()
    for match in set(re.findall(r"`repro\.([a-z_.]+)`", text)):
        parts = match.split(".")
        candidate = ROOT / "src" / "repro" / Path(*parts)
        assert (
            candidate.with_suffix(".py").exists()
            or (candidate / "__init__.py").exists()
            or _is_attribute(parts)
        ), f"{doc} references repro.{match}"


def _is_attribute(parts):
    """Dotted path may name an attribute of a module (e.g. planner.plan)."""
    for split in range(len(parts), 0, -1):
        module_name = "repro." + ".".join(parts[:split])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj = module
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


class TestEveryPaperArtifactHasABench:
    ARTIFACTS = [
        "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5",
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    ]

    def test_driver_modules_exist(self):
        for artifact in self.ARTIFACTS:
            path = ROOT / "src" / "repro" / "experiments" / f"{artifact}.py"
            assert path.exists(), artifact

    def test_bench_exists_per_artifact(self):
        bench_names = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        mapping = {
            "table1": "test_table1_ratios.py",
            "table2": "test_table2_complexity.py",
            "table3": "test_table3_iteration.py",
            "fig2": "test_fig2_iteration_time.py",
            "fig3": "test_fig3_breakdown.py",
            "fig4": "test_fig4_schedules.py",
            "fig5": "test_fig5_cdf.py",
            "fig6": "test_fig6_convergence.py",
            "fig7": "test_fig7_ablation.py",
            "fig8": "test_fig8_breakdown.py",
            "fig9": "test_fig9_sysopt.py",
            "fig10": "test_fig10_buffer.py",
            "fig11": "test_fig11_hyperparams.py",
            "fig12": "test_fig12_scaling.py",
            "fig13": "test_fig13_bandwidth.py",
        }
        for artifact, bench in mapping.items():
            assert bench in bench_names, f"missing bench for {artifact}"

    def test_experiments_md_covers_every_artifact(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in ("Table I", "Table II", "Table III", "Fig. 2",
                        "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                        "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
                        "Fig. 13"):
            assert heading in text, heading


class TestPublicApiImportable:
    def test_star_exports_resolve(self):
        """Every package under ``src/repro`` exports only names it has
        (``repro.__all__`` names sub-packages, bound once imported)."""
        packages = [
            importlib.import_module(".".join(init.parent.relative_to(SRC).parts))
            for init in sorted((SRC / "repro").rglob("__init__.py"))
        ]
        assert packages
        for package in packages:
            for name in package.__all__:
                assert hasattr(package, name), (package.__name__, name)


class TestQuotedAnnotationsResolve:
    """pyflakes' F821 for string annotations, checked without ``ruff``."""

    def test_quoted_annotations_name_module_level_bindings(self):
        unresolved = []
        for top in ("src", "scripts", "examples"):
            for path in sorted((ROOT / top).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                known = _module_level_names(tree)
                for annotation in _annotations(tree):
                    for name in _quoted_names(annotation):
                        if name not in known:
                            unresolved.append(
                                f"{path.relative_to(ROOT)}:{annotation.lineno} {name}"
                            )
        assert not unresolved, unresolved


def _module_level_names(tree):
    """Builtins plus every name the module body binds (``if`` / ``try``
    blocks such as ``if TYPE_CHECKING:`` included)."""
    names = set(dir(builtins))
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0] for alias in node.names
            )
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            for block in ("body", "orelse", "handlers", "finalbody"):
                pending.extend(getattr(node, block, []))
    return names


def _annotations(tree):
    """Every argument, return and variable annotation expression."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spec = node.args
            for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                        spec.vararg, spec.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _quoted_names(node, quoted=False):
    """Names referenced inside the string constants of an annotation
    (``Literal[...]`` members are values, not references)."""
    if isinstance(node, ast.Subscript) and (
        getattr(node.value, "id", getattr(node.value, "attr", None)) == "Literal"
    ):
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield from _quoted_names(ast.parse(node.value, mode="eval").body, True)
    elif isinstance(node, ast.Name):
        if quoted:
            yield node.id
    else:
        for child in ast.iter_child_nodes(node):
            yield from _quoted_names(child, quoted)
