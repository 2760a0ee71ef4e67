import importlib
import pkgutil

import hoermander_kit
from hoermander_kit import parabolic

# names that were second entry points onto another one, and were removed
_RETIRED = ("target_norm", "StripField", "lift_T_strip", "strip_trace", "quotient_norm_dense")


def test_every_export_resolves_and_no_retired_name_is_left():
    modules = [hoermander_kit] + [importlib.import_module(f"hoermander_kit.{info.name}")
                                  for info in pkgutil.iter_modules(hoermander_kit.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"
        left = [name for name in _RETIRED if name in exported or hasattr(module, name)]
        assert not left, f"{module.__name__} still has {left}"
    assert not hasattr(parabolic.ConditionReport, "summary")
    assert not hasattr(parabolic.ParabolicProblem, "verify")
