import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import efxlab


def test_every_exported_name_resolves_once():
    assert len(set(efxlab.__all__)) == len(efxlab.__all__)
    for name in efxlab.__all__:
        assert hasattr(efxlab, name), name


def test_import_loads_neither_the_acceptance_suite_nor_the_cli():
    src = str(Path(efxlab.__file__).resolve().parents[1])
    probe = "import sys, efxlab; print(*sorted(m for m in sys.modules if m.startswith('efxlab')))"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "efxlab.fairness" in out
    assert "efxlab.acceptance" not in out and "efxlab.cli" not in out


def _benchmark_references():
    """(file, module, dotted name) for each library name the benchmark harness reads.

    The harness reaches efxlab through a namespace `lib` of its modules:
    `lib.<module>.<name>`, a name of an alias `<alias> = lib.<module>`, and
    the clause generator `<family>_clauses` of each family in `tracing.FAMILIES`.
    """
    harness = Path(__file__).resolve().parents[1] / "perfbench"
    refs = []
    for path in sorted(harness.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        refs += [(path.name, *ref) for ref in re.findall(r"\blib\.(\w+)\.(\w+(?:\.\w+)*)", text)]
        for alias, module in re.findall(r"^\s*(\w+) = lib\.(\w+)$", text, re.MULTILINE):
            refs += [(path.name, module, name) for name in re.findall(rf"\b{alias}\.(\w+)", text)]
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FAMILIES"]:
                families = ast.literal_eval(node.value)
                refs += [(path.name, "encoding", f"{family}_clauses") for family in families]
    return refs


def test_every_library_name_the_benchmark_reads_resolves():
    """The harness lies outside tier-1, so a refactor must not break it unseen."""
    refs = _benchmark_references()
    assert len(refs) >= 40 and {file for file, _, _ in refs} == {"tracing.py", "workloads.py"}
    for file, module, name in refs:
        owner = importlib.import_module(f"efxlab.{module}")
        for part in name.split("."):
            assert hasattr(owner, part), f"{file}: efxlab.{module}.{name}"
            owner = getattr(owner, part)
