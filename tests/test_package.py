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
