import subprocess
import sys
from pathlib import Path

import magbeam
import magbeam.conic


def test_import_skips_lazy_and_non_dependency_modules():
    # logging and concurrent.futures are imported where they are used, and
    # SciPy is not a dependency: a plain `import magbeam` loads none of them
    src = str(Path(magbeam.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import magbeam; "
            "print(' '.join(m for m in ('logging', 'concurrent.futures', 'scipy') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == []


def test_every_export_resolves():
    # a deleted function must not leave its name behind in __all__
    for module in (magbeam, magbeam.conic):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
