"""The benchmark's span tracer must still install over the package.

``perfbench/tracing.py`` wraps package functions by module and name (for
example ``simulator.derive_stream`` and ``link.sample_fading_block``);
``Tracer.install`` raises AttributeError when one of them is gone, which
would break every traced benchmark run.  The tracer is loaded read-only
from the benchmark directory.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_install_and_uninstall_restore_every_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("tracing", None)
    tracing = importlib.import_module("tracing")

    tracer = tracing.Tracer()
    try:
        # A failed install still undoes the patches it made before failing.
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for obj, attr, original in patches:
            assert getattr(obj, attr) is not original
    finally:
        tracer.uninstall()
    for obj, attr, original in patches:
        assert getattr(obj, attr) is original, f"{obj.__name__}.{attr} not restored"
    sys.modules.pop("tracing")
