"""Repository-coherence checks: docs, benches and drivers stay in sync."""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

from repro.experiments import claims

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


class TestClaimTable:
    """The paper's claims are declared once, in ``repro.experiments.claims``:
    every simulator artifact has a row, every row cites an artifact or a
    section, and EXPERIMENTS.md quotes the table as rendered."""

    SIMULATED = ["table3", "fig2", "fig3", "fig5", "fig8", "fig9", "fig10",
                 "fig11", "fig12", "fig13"]

    def test_every_simulator_artifact_has_a_claim(self):
        sources = {claim.source for claim in claims.CLAIMS}
        for artifact in self.SIMULATED:
            assert _label(artifact) in sources, artifact

    def test_every_source_is_an_artifact_or_a_section(self):
        labels = set(map(_label, TestEveryPaperArtifactHasABench.ARTIFACTS))
        for claim in claims.CLAIMS:
            assert (claim.source in labels
                    or re.fullmatch(r"§[IVX]+-[A-Z](\.\d+)?", claim.source)
                    ), claim.source

    def test_experiments_md_quotes_the_rendered_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        block = re.search(
            r"<!-- claims:begin -->\n(.*?)\n<!-- claims:end -->", text, re.S
        )
        assert block is not None, "EXPERIMENTS.md has no claims block"
        assert block.group(1) == claims.render()


def _label(artifact):
    """An experiment module's artifact as the paper names it: ``fig12`` ->
    ``Fig. 12``, ``table3`` -> ``Table III`` (the paper has Tables I-III)."""
    kind, number = re.fullmatch(r"(table|fig)(\d+)", artifact).groups()
    return "Table " + "I" * int(number) if kind == "table" else f"Fig. {number}"


class TestPublicApiImportable:
    def test_star_exports_resolve(self):
        """Every package under ``src/repro`` exports only names it has
        (``repro.__all__`` names sub-packages, bound once imported)."""
        packages = [
            importlib.import_module(_dotted(init))
            for init in sorted((SRC / "repro").rglob("__init__.py"))
        ]
        assert packages
        for package in packages:
            for name in package.__all__:
                assert hasattr(package, name), (package.__name__, name)


class TestEveryModuleIsUsed:
    """Use or lose (ROADMAP 5(e)): a module under ``src/repro`` is imported
    by a non-``__init__`` ``src`` module (``cli.py`` included), ``scripts/``
    or ``perfbench/`` — by its path, or through a name its package
    ``__init__`` re-exports. Tests, examples, benchmarks and the ``__init__``
    re-export itself do not count. A module only those reach is deleted, or
    listed in ``KEPT`` with the documented claim it backs.

    The same rule one level down: a public top-level function or class is
    mentioned by some file outside ``tests/`` other than a package
    ``__init__`` — ``src``, ``scripts/``, ``perfbench/``, ``examples/`` or
    ``benchmarks/`` — or is deleted, or is in ``KEPT``."""

    KEPT = {
        "repro.experiments.sensitivity":
            "EXPERIMENTS.md 'Calibration sensitivity' (DESIGN.md row SENS): "
            "Table III's orderings hold at every +/-25% perturbation",
        "repro.experiments.extended_convergence":
            "EXPERIMENTS.md 'Extended convergence comparison' (DESIGN.md row "
            "CONV+): nine aggregators, one task, measured wire traffic",
        "repro.sim.pipeline":
            "EXPERIMENTS.md 'Steady-state pipelining + priority comm "
            "scheduling' (DESIGN.md row PIPE); three golden-trace scenarios",
        "repro.nn.reshape":
            "DESIGN.md 'Autodiff / layers framework' row lists Flatten; the "
            "conv -> Linear models of tier-1's trainer, reducer and "
            "nn-kernel tests are built on it",
        "repro.comm.collectives.all_reduce_ring":
            "reference implementation: the step-wise ring whose association "
            "all_reduce_inplace must reproduce bit for bit "
            "(tests/test_allreduce_kernel.py, test_hierarchical_comm.py)",
        "repro.compression.topk.exact_topk_mask":
            "reference implementation: the one-argpartition oracle whose set "
            "topk_select must select on every input "
            "(tests/test_topk_kernels.py, tests/test_topk.py)",
        "repro.compression.signsgd":
            "reference implementation: the per-vector compressor and float "
            "vote the Sign-SGD aggregator's bucket-wise, in-slab error "
            "feedback and integer bit count are pinned to "
            "(tests/test_aggregators.py, tests/test_signsgd.py)",
        "repro.nn.pooling.AvgPool2d":
            "DESIGN.md 'Autodiff / layers framework' row lists MaxPool/AvgPool",
        "repro.sim.strategies.build_iteration_graph":
            "docs/simulator.md 'build without running': the graphs the golden "
            "scenarios digest and the event-loop count pin polls",
    }

    def test_every_module_has_a_caller_outside_tests(self):
        files = {_dotted(path): path for path in (SRC / "repro").rglob("*.py")}
        packages = {name for name, path in files.items()
                    if path.name == "__init__.py"}
        reexported = {
            (package, ref.rpartition(".")[2]): ref
            for package in packages
            for ref in _repro_references(files[package])
        }

        def defining_module(ref):
            """The module file a dotted reference lands in, following package
            re-exports; ``None`` for a bare package or an unknown name."""
            while ref is not None:
                parts = ref.split(".")
                cut = max(n for n in range(1, len(parts) + 1)
                          if ".".join(parts[:n]) in files)
                head = ".".join(parts[:cut])
                if head not in packages:
                    return head
                ref = reexported.get((head, parts[cut])) if cut < len(parts) else None
            return None

        callers = [path for name, path in files.items() if name not in packages]
        for top in ("scripts", "perfbench"):
            callers.extend((ROOT / top).rglob("*.py"))
        used = set()
        for path in callers:
            used.update(
                target for target in map(defining_module, _repro_references(path))
                if target is not None and files[target] != path
            )
        entry_points = {"repro.__main__"}
        unused = set(files) - packages - entry_points - used
        kept = set(self.KEPT) & set(files)
        assert unused == kept, (
            f"only tests/examples/benchmarks reach {sorted(unused - kept)}; "
            f"KEPT entries that now have a caller {sorted(kept - unused)}"
        )

    def test_every_public_name_has_a_caller_outside_tests(self):
        modules = {
            _dotted(path): path for path in (SRC / "repro").rglob("*.py")
            if path.name != "__init__.py"
        }
        callers = list(modules.values())
        for top in ("scripts", "perfbench", "examples", "benchmarks"):
            callers.extend((ROOT / top).rglob("*.py"))
        mentioned = set().union(*map(_identifiers, callers))
        unused = {
            f"{module}.{node.name}"
            for module, path in modules.items() if module not in self.KEPT
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in mentioned
        }
        kept = set(self.KEPT) - set(modules)
        assert unused == kept, (
            f"only their definition, an __init__ and tests mention "
            f"{sorted(unused - kept)}; KEPT names that now have a caller "
            f"{sorted(kept - unused)}"
        )

    def test_every_public_method_is_mentioned(self):
        """And one level further: a public method of a public ``src`` class
        is mentioned in code besides its own ``def`` — by ``src``,
        ``scripts/``, ``perfbench/``, ``examples/``, ``benchmarks/`` or
        ``tests/`` — or is deleted. Names are matched, not receivers, so
        an override is used wherever its base method is."""
        files = [
            path
            for top in ("src", "scripts", "perfbench", "examples",
                        "benchmarks", "tests")
            for path in (ROOT / top).rglob("*.py")
        ]
        mentioned = set().union(*map(_identifiers, files))
        unused = sorted(
            f"{_dotted(path)}.{cls.name}.{node.name}"
            for path in (SRC / "repro").rglob("*.py")
            for cls in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in mentioned
        )
        assert not unused, f"nothing mentions {unused}"


def _dotted(path):
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package's ``__init__`` -> the package."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _identifiers(path):
    """Every name a file mentions in code: variables, attributes, imported
    names, and identifier-shaped strings (``getattr(module, "name")``,
    perfbench's wrap tables). A definition does not mention itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tail = node.value.rpartition(".")[2]
            if tail.isidentifier():
                found.add(tail)
    return found


def _repro_references(path):
    """Every ``repro...`` dotted path a file imports, or reaches as an
    attribute of an imported module (``E.run_fig2`` after ``import
    repro.experiments as E``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, references = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                references.add(alias.name)
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``a.b``.
                target = alias.name if alias.asname else alias.name.split(".")[0]
                bound[alias.asname or target] = target
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                references.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            references.add(".".join([bound[node.id], *reversed(attrs)]))
    return {ref for ref in references if ref.split(".")[0] == "repro"}


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
