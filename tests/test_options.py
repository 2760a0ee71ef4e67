"""Every optional parameter of the package is set by some caller.

An option that no call in ``src/``, ``perfbench/`` or ``tests/`` sets is a
second configuration that nothing runs; it should be the constant it always
is.  Calls are matched to definitions by function name alone.  A parameter
counts as set when a call passes it by position (before any ``*args``), by
keyword, as a key of a ``**{...}`` literal, or through
``functools.partial(f, ...)``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hoermander_kit"
CALLERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tests")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_method(node: ast.FunctionDef, parents: dict) -> bool:
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    return isinstance(parents.get(node), ast.ClassDef) and not static


def _options(tree: ast.Module, module: str) -> list[tuple[str, str, int | None, str]]:
    """(module, function, position or None for keyword-only, name) per optional parameter."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if _is_method(node, parents) else 0
        for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                start=len(positional) - len(args.defaults)):
            found.append((module, node.name, i - skip, arg.arg))
        found += [(module, node.name, None, arg.arg)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return found


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _settings(call: ast.Call, args: list[ast.expr]) -> set:
    """Positions and keywords that one call, with ``args`` as its positionals, sets."""
    out = set()
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            break
        out.add(i)
    for kw in call.keywords:
        if kw.arg is not None:
            out.add(kw.arg)
        elif isinstance(kw.value, ast.Dict):
            out |= {k.value for k in kw.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return out


def _set_at_call_sites() -> dict[str, set]:
    set_by_name: dict[str, set] = {}
    for root in CALLERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), node.args
                if name == "partial" and args and not isinstance(args[0], ast.Starred):
                    name, args = _callee(args[0]), args[1:]
                if name is not None:
                    set_by_name.setdefault(name, set()).update(_settings(node, args))
    return set_by_name


def unset_options() -> list[str]:
    set_by_name = _set_at_call_sites()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, func, pos, name in _options(_parse(path), path.stem):
            given = set_by_name.get(func, set())
            if name not in given and (pos is None or pos not in given):
                unset.append(f"{module}.{func}({name}=)")
    return unset


def test_every_option_is_set_by_some_caller():
    unset = unset_options()
    assert not unset, (f"{len(unset)} options that no call sets; make each the constant "
                       f"it always is: " + ", ".join(unset))
