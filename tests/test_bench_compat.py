"""The benchmark tracer patches library names by attribute; every name it
patches must exist, and uninstalling must put the originals back."""

import sys
from pathlib import Path

import spinor_efimov
import spinor_efimov.cli  # noqa: F401  (the tracer reaches cli and runner as attributes)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_restores_every_patch():
    tracer = tracing.Tracer(spinor_efimov)
    before = {(mod, attr): getattr(tracer.modules[mod], attr)
              for mod, attr, _ in tracing._PATCHES}
    before.update({(mod, "np"): tracer.modules[mod].np
                   for mod in tracing._NUMPY_USERS})
    tracer.install()
    try:
        patched = [key for key, fn in before.items()
                   if getattr(tracer.modules[key[0]], key[1]) is not fn]
        assert sorted(patched) == sorted(before)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in before.items():
        assert getattr(tracer.modules[mod], attr) is fn, (mod, attr)
