"""AST lints encoding standing project invariants over the repo's own source.

These are not style checks — each lint guards a correctness property that has
to hold for caching, concurrency or the wire protocol to stay sound:

``wallclock-in-fingerprint``
    Fingerprint / cache-key modules must be deterministic: no
    ``time.time``/``datetime.now``-style wall-clock reads (monotonic clocks
    for *measuring* are fine and are not flagged).
``unlocked-state-write``
    In a class that guards state with ``self._lock``, an attribute that is
    written inside a ``with self._lock`` block somewhere must be written
    under the lock everywhere (outside ``__init__``; methods whose name ends
    in ``_locked`` are assumed to run with the lock held by their caller).
``record-schema-version``
    Every wire/JSONL record constructor (functions ending in ``_record`` and
    ``describe`` methods returning typed records) must produce records that
    carry ``schema_version`` — either literally or by routing through
    ``stamp(...)``.
``unfrozen-isa-dataclass``
    µop dataclasses in ``isa/`` modules must be ``frozen=True``; program
    containers rely on value semantics and hashability.

A finding can be waived inline with a justification::

    self._total += 1  # lint: allow(unlocked-state-write) single-threaded by contract

The waiver comment may sit on the flagged line or the line above and only
silences the ids it names.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ReproError


class LintError(ReproError):
    """A lint target could not be read or parsed."""


@dataclass(frozen=True)
class LintFinding:
    """One lint violation, anchored to a source line."""

    path: str
    line: int
    check_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.check_id}: {self.message}"


#: Lint ids and what they guard (the README's lint catalog renders this).
LINT_CATALOG: Dict[str, str] = {
    "wallclock-in-fingerprint": (
        "no wall-clock reads (time.time / datetime.now / ...) in fingerprint "
        "or cache-key code"
    ),
    "unlocked-state-write": (
        "attributes a class writes under `with self._lock` must be written "
        "under the lock everywhere outside __init__"
    ),
    "record-schema-version": (
        "wire/JSONL record constructors must emit schema_version (literally "
        "or via stamp(...))"
    ),
    "unfrozen-isa-dataclass": "dataclasses in isa/ modules must be frozen=True",
}

_WAIVER_RE = re.compile(r"#\s*lint:\s*allow\(([A-Za-z0-9_,\s-]+)\)")

_WALLCLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)
_FINGERPRINT_FILE_HINTS = ("serialization", "cache", "fingerprint")
_FINGERPRINT_FUNC_HINTS = ("fingerprint", "cache_key")


def lint_ids() -> Tuple[str, ...]:
    return tuple(sorted(LINT_CATALOG))


@dataclass
class _Module:
    path: Path
    display: str
    tree: ast.AST
    waivers: Dict[int, Set[str]]


def _load_module(path: Path, root: Optional[Path]) -> _Module:
    try:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError) as exc:
        raise LintError(f"cannot lint {path}: {exc}") from exc
    waivers: Dict[int, Set[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            waivers[number] = ids
    display = str(path)
    if root is not None:
        try:
            display = str(path.relative_to(root))
        except ValueError:
            pass
    return _Module(path=path, display=display, tree=tree, waivers=waivers)


def _iter_py_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            # a mistyped path would otherwise lint nothing and report clean
            raise LintError(f"cannot lint {path}: no such file or directory")
    return files


def _dotted_name(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _Emitter:
    def __init__(self, module: _Module, select: Optional[Set[str]]) -> None:
        self._module = module
        self._select = select
        self.findings: List[LintFinding] = []

    def emit(self, check_id: str, line: int, message: str) -> None:
        if self._select is not None and check_id not in self._select:
            return
        for waiver_line in (line, line - 1):
            if check_id in self._module.waivers.get(waiver_line, ()):
                return
        self.findings.append(
            LintFinding(
                path=self._module.display, line=line, check_id=check_id, message=message
            )
        )


# ----------------------------------------------------------------------
# wallclock-in-fingerprint
# ----------------------------------------------------------------------
def _lint_wallclock(module: _Module, emit: _Emitter) -> None:
    basename = module.path.name.lower()
    whole_file = any(hint in basename for hint in _FINGERPRINT_FILE_HINTS)

    # Resolve `from time import time`-style bare names to dotted forms.
    bare_names: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("time", "datetime"):
            for alias in node.names:
                bare_names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def flag_calls(root: ast.AST, where: str) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted in bare_names:
                dotted = bare_names[dotted]
            if dotted and any(
                dotted == suffix or dotted.endswith("." + suffix)
                for suffix in _WALLCLOCK_SUFFIXES
            ):
                emit.emit(
                    "wallclock-in-fingerprint", node.lineno,
                    f"wall-clock call {dotted}() in {where}; fingerprints and "
                    "cache keys must be deterministic",
                )

    if whole_file:
        flag_calls(module.tree, f"cache/fingerprint module {module.path.name}")
        return
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            hint in node.name.lower() for hint in _FINGERPRINT_FUNC_HINTS
        ):
            flag_calls(node, f"{node.name}()")


# ----------------------------------------------------------------------
# unlocked-state-write
# ----------------------------------------------------------------------
def _self_attr_targets(node: ast.AST) -> List[Tuple[str, int]]:
    """Names of `self.<attr>` targets written by an assignment statement."""
    found: List[Tuple[str, int]] = []

    def visit_target(target: ast.AST) -> None:
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                found.append((target.attr, target.lineno))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                visit_target(element)

    if isinstance(node, ast.Assign):
        for target in node.targets:
            visit_target(target)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        visit_target(node.target)
    return found


def _is_lock_with(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        dotted = _dotted_name(expr)
        if dotted.split(".")[-1].endswith("_lock"):
            return True
    return False


def _lint_lock_discipline(module: _Module, emit: _Emitter) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            child
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        has_lock = any(
            attr == "_lock"
            for method in methods
            for stmt in ast.walk(method)
            for attr, _ in _self_attr_targets(stmt)
        )
        if not has_lock:
            continue

        locked_writes: Dict[str, int] = {}
        unlocked_writes: List[Tuple[str, int, str]] = []

        def scan(root: ast.AST, method_name: str, under_lock: bool) -> None:
            for child in ast.iter_child_nodes(root):
                if isinstance(child, ast.With):
                    scan(child, method_name, under_lock or _is_lock_with(child))
                    continue
                for attr, line in _self_attr_targets(child):
                    if attr == "_lock":
                        continue
                    if under_lock:
                        locked_writes.setdefault(attr, line)
                    else:
                        unlocked_writes.append((attr, line, method_name))
                scan(child, method_name, under_lock)

        for method in methods:
            if method.name == "__init__":
                continue
            # `_locked`-suffixed helpers run with the lock already held by
            # their caller — the standing naming convention in this repo.
            scan(method, method.name, under_lock=method.name.endswith("_locked"))

        for attr, line, method_name in unlocked_writes:
            if attr in locked_writes:
                emit.emit(
                    "unlocked-state-write", line,
                    f"{node.name}.{method_name} writes self.{attr} outside "
                    f"`with self._lock` although the class writes it under "
                    f"the lock elsewhere (line {locked_writes[attr]})",
                )


# ----------------------------------------------------------------------
# record-schema-version
# ----------------------------------------------------------------------
def _dict_keys(node: ast.Dict) -> Set[str]:
    keys: Set[str] = set()
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def _lint_record_schema(module: _Module, emit: _Emitter) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        is_constructor = node.name.endswith("_record")
        is_describe = node.name == "describe"
        if not (is_constructor or is_describe):
            continue
        for child in ast.walk(node):
            if not isinstance(child, ast.Return) or child.value is None:
                continue
            value = child.value
            if isinstance(value, ast.Call):
                dotted = _dotted_name(value.func)
                if dotted.split(".")[-1] == "stamp":
                    continue
                if is_constructor:
                    emit.emit(
                        "record-schema-version", child.lineno,
                        f"{node.name} returns {dotted or 'a call'}(...) instead "
                        "of stamp(...) or a literal carrying schema_version",
                    )
                continue
            if isinstance(value, ast.Dict):
                keys = _dict_keys(value)
                if "schema_version" in keys:
                    continue
                if is_constructor or "type" in keys or "event" in keys:
                    emit.emit(
                        "record-schema-version", child.lineno,
                        f"{node.name} returns a record dict without "
                        "schema_version (wrap it in stamp(...) or add the key)",
                    )


# ----------------------------------------------------------------------
# unfrozen-isa-dataclass
# ----------------------------------------------------------------------
def _lint_frozen_dataclasses(module: _Module, emit: _Emitter) -> None:
    if "isa" not in module.path.parts:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if _dotted_name(target).split(".")[-1] != "dataclass":
                continue
            frozen = False
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        frozen = True
            if not frozen:
                emit.emit(
                    "unfrozen-isa-dataclass", node.lineno,
                    f"dataclass {node.name} in an isa/ module must be "
                    "declared @dataclass(frozen=True)",
                )


_LINTS = (
    _lint_wallclock,
    _lint_lock_discipline,
    _lint_record_schema,
    _lint_frozen_dataclasses,
)


def run_lints(
    paths: Sequence[Path | str],
    *,
    select: Optional[Sequence[str]] = None,
    root: Optional[Path | str] = None,
) -> List[LintFinding]:
    """Run every lint over the ``.py`` files under ``paths``.

    ``select`` restricts to a subset of lint ids; ``root`` makes reported
    paths relative (defaults to the common working directory behaviour of
    absolute/as-given paths).
    """
    selected = set(select) if select is not None else None
    if selected is not None:
        unknown = selected - set(LINT_CATALOG)
        if unknown:
            raise LintError(f"unknown lint id(s): {', '.join(sorted(unknown))}")
    root_path = Path(root) if root is not None else None
    findings: List[LintFinding] = []
    for file_path in _iter_py_files([Path(p) for p in paths]):
        module = _load_module(file_path, root_path)
        emitter = _Emitter(module, selected)
        for lint in _LINTS:
            lint(module, emitter)
        findings.extend(emitter.findings)
    return sorted(findings, key=lambda f: (f.path, f.line, f.check_id))
