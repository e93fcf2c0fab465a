"""Meta checks: packaging, versioning, documentation honesty."""

from pathlib import Path


import repro

ROOT = Path(__file__).resolve().parent.parent


def test_version_consistent_with_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in pyproject


def test_public_api_surface():
    assert callable(repro.Session)
    assert not hasattr(repro, "run_benchmark")  # the deprecated shim is gone
    assert len(repro.available_benchmarks()) == 14
    assert repro.get_benchmark("fib").info.paper_task_duration_us == 1.37

    # Each public name has one spelling; the compatibility aliases stay deleted.
    import importlib
    import importlib.util
    import inspect

    import pytest

    from repro.api import Session
    from repro.cli import build_parser
    from repro.distributed import DistributedSystem
    from repro.exec.probes import KernelProbe
    from repro.simcore.machine import Machine

    retired = {
        "repro.simcore": ("MachineSpec", "MemoryController", "MemoryTrafficStats"),
        "repro.simcore.machine": ("MachineSpec", "PlatformLike"),
        "repro.counters": ("build_default_registry",),
        "repro.counters.registry": ("build_default_registry",),
        "repro.counters.query": ("QUERY_COST_PER_COUNTER_NS",),
        "repro.counters.providers": ("_EntryCollector",),
        "repro.runtime": ("WorkerStats", "ThreadManagerStats"),
        "repro.runtime.scheduler": ("WorkerStats", "ThreadManagerStats"),
        "repro.kernel.scheduler": ("StdStats",),
        "repro.experiments.config": ("default_machine_spec",),
        "repro.trace": ("TraceRecorder", "build_profile", "work_span"),
    }
    for module, names in retired.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name} is back"
    for module in ("repro.trace.recorder", "repro.trace.profile", "repro.trace.dag"):
        assert importlib.util.find_spec(module) is None, module
    assert importlib.util.find_spec("repro.simcore.memory") is None
    for attr in ("threads_created", "threads_completed", "live_threads", "peak_live_threads"):
        assert not hasattr(KernelProbe(), attr)
    machine = Machine()
    for attr in ("spec", "controllers", "_active_ws"):
        assert not hasattr(machine, attr)
    assert "machine" not in inspect.signature(Session).parameters
    assert "machine_spec" not in inspect.signature(DistributedSystem).parameters
    # Runtime cost models travel in ``config=``, telemetry per run, and
    # the network model is fixed.
    for option in ("hpx_params", "std_params", "telemetry"):
        assert option not in inspect.signature(Session).parameters, option
    for option in ("hpx_params", "network"):
        assert option not in inspect.signature(DistributedSystem).parameters, option
    with pytest.raises(ValueError, match="unknown runtime"):
        Session(runtime="kernel")
    for verb in ("list-benchmarks", "list-counters"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb])


def test_third_party_imports_are_declared_dependencies():
    """A plain ``pip install .`` runs everything under src/: every
    non-stdlib module the package imports (at module level or lazily)
    is named in ``[project].dependencies``.  An import inside a ``try``
    that catches ``ImportError`` is optional by construction (e.g.
    ``tomllib``, stdlib only from 3.11) and is not counted."""
    import ast
    import re
    import sys

    pyproject = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
    assert block, "no [project].dependencies in pyproject.toml"
    declared = {
        re.split(r"[<>=!~\[; ]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', block.group(1))
    }
    def guards_import_error(handler: ast.ExceptHandler) -> bool:
        caught = handler.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        return any(
            isinstance(n, ast.Name) and n.id in ("ImportError", "ModuleNotFoundError")
            for n in names
        )

    undeclared: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        optional = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.Try) and any(map(guards_import_error, node.handlers))
            for stmt in node.body
            for inner in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if id(node) in optional:
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names or top.lower() in declared:
                    continue
                undeclared.setdefault(top, []).append(str(path.relative_to(ROOT)))
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


def test_nodes_are_built_only_by_the_node_builder():
    """One run path: ``Machine``, ``PapiSubstrate`` and
    ``CounterEnvironment`` are constructed only in ``repro.exec.node``,
    and no other module under src/ calls a scheduler backend's
    constructor (subclasses such as instrumented runtimes included)."""
    import ast

    from repro.exec.node import BACKENDS
    from repro.experiments.config import RUNTIMES

    assert tuple(BACKENDS) == RUNTIMES
    builder = ROOT / "src" / "repro" / "exec" / "node.py"
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    backends = {cls.__name__ for cls in BACKENDS.values()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in backends for base in node.bases
            ):
                backends.add(node.name)
    constructors = {"Machine", "PapiSubstrate", "CounterEnvironment"} | backends

    def called(tree: ast.AST) -> list[tuple[int, str]]:
        calls = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in constructors:
                    calls.append((node.lineno, name))
        return calls

    assert {"Machine", "PapiSubstrate", "CounterEnvironment"} <= {
        name for _, name in called(trees[builder])
    }
    elsewhere = [
        f"{path.relative_to(ROOT)}:{line} {name}("
        for path, tree in trees.items()
        if path != builder
        for line, name in called(tree)
    ]
    assert not elsewhere, f"nodes built outside repro.exec.node: {elsewhere}"


def test_counter_docs_cover_registry(registry):
    """Every registered counter type appears in docs/counters.md."""
    doc = (ROOT / "docs" / "counters.md").read_text()
    for entry in registry.counter_types():
        type_name = entry.info.type_name
        # /threads/time/average is documented as `time/average` in the
        # tables; accept either full path or the trailing name.
        tail = type_name.split("/", 2)[-1]
        assert type_name in doc or tail in doc, f"{type_name} missing from docs"


def test_design_doc_lists_every_figure_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for bench_file in (ROOT / "benchmarks").glob("test_fig*.py"):
        assert bench_file.name in design, f"{bench_file.name} not in DESIGN.md index"
    assert "test_table1_external_tools.py" in design
    assert "test_table5_classification.py" in design


def test_experiments_doc_mentions_every_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for fig in range(1, 15):
        assert f"Fig {fig}" in text or f"Figures {fig}" in text or f"fig{fig}" in text, (
            f"figure {fig} not recorded in EXPERIMENTS.md"
        )


def test_all_source_modules_have_docstrings():
    import ast

    missing = []
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            missing.append(str(path.relative_to(ROOT)))
    assert not missing, f"modules without docstrings: {missing}"


def test_all_public_functions_documented():
    """Every public callable in the counters package (the paper's
    contribution) carries a docstring."""
    import inspect

    from repro.counters import base, manager, names, providers, query, registry

    undocumented = []
    for module in (base, manager, names, providers, query, registry):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.getdoc(obj):
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public callables: {undocumented}"
