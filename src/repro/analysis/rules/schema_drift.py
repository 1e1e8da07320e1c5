"""Rule ``schema-drift``: wire envelopes and sweep columns stay in sync.

Two structural checks that catch the classic "added a field to one side"
drift:

1. for every class defining both ``to_wire`` and ``from_wire``, the set
   of payload keys written by ``to_wire`` must equal the set read by
   ``from_wire`` (modulo envelope bookkeeping keys) — a key written but
   never read is silently dropped on decode, a key read but never
   written decodes as a default forever;
2. in the module defining ``SWEEP_COLUMNS``, every ``add_row(...)`` call
   passes exactly ``len(SWEEP_COLUMNS)`` positional values, and
   ``COORD_COLUMNS`` plus any ``list(COORD_COLUMNS) + [...]`` column
   lists mention only registered columns.

Keys the rule cannot see statically (computed keys, ``**`` splats) make
the envelope unanalyzable and the class is skipped rather than
false-positived.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.model import ProjectModel, SourceFile

__all__ = ["SchemaDriftRule"]

#: Envelope bookkeeping keys exempt from the symmetry check.
IGNORED_KEYS = frozenset({"schema_version", "version", "kind"})

COLUMNS = "SWEEP_COLUMNS"
COORDS = "COORD_COLUMNS"


class SchemaDriftRule(Rule):
    name = "schema-drift"
    description = ("to_wire/from_wire key sets match and sweep column "
                   "lists agree with their row producers")

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        yield from self._check_envelopes(project)
        yield from self._check_columns(project)

    # ------------------------------------------------------------------ #
    # wire envelopes
    # ------------------------------------------------------------------ #
    def _check_envelopes(self, project: ProjectModel) -> Iterator[Finding]:
        for info in project.classes.values():
            to_wire = self._method(info.node, "to_wire")
            from_wire = self._method(info.node, "from_wire")
            if to_wire is None or from_wire is None:
                continue
            written = self._written_keys(info.node, to_wire)
            read = self._read_keys(from_wire)
            if written is None or read is None:
                continue  # unanalyzable (splats, computed keys): skip
            written -= IGNORED_KEYS
            read -= IGNORED_KEYS
            for key in sorted(written - read):
                yield self.finding(
                    info.file.relpath, to_wire.lineno,
                    f'{info.name}.to_wire writes key "{key}" that '
                    f"from_wire never reads; the field is dropped on "
                    f"decode")
            for key in sorted(read - written):
                yield self.finding(
                    info.file.relpath, from_wire.lineno,
                    f'{info.name}.from_wire reads key "{key}" that '
                    f"to_wire never writes; the field always decodes as "
                    f"its default")

    @staticmethod
    def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    def _written_keys(self, cls: ast.ClassDef,
                      to_wire: ast.FunctionDef) -> set[str] | None:
        # `for f in fields(self): payload[f.name] = ...` serialises every
        # dataclass field; its `f.name` subscripts are covered by the loop
        field_vars = {node.target.id for node in ast.walk(to_wire)
                      if isinstance(node, ast.For)
                      and isinstance(node.target, ast.Name)
                      and self._iterates_fields(node)}
        keys: set[str] = set()
        for node in ast.walk(to_wire):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is None:
                        return None  # ** splat: unanalyzable
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        keys.add(key.value)
                    else:
                        return None
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant) \
                        and isinstance(node.slice.value, str):
                    keys.add(node.slice.value)
                elif not (isinstance(node.slice, ast.Attribute)
                          and node.slice.attr == "name"
                          and isinstance(node.slice.value, ast.Name)
                          and node.slice.value.id in field_vars):
                    return None
            elif isinstance(node, ast.For) and self._iterates_fields(node):
                keys.update(self._dataclass_fields(cls))
        return keys or None

    @staticmethod
    def _iterates_fields(loop: ast.For) -> bool:
        it = loop.iter
        return (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "fields")

    @staticmethod
    def _dataclass_fields(cls: ast.ClassDef) -> set[str]:
        names: set[str] = set()
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                annotation = ast.unparse(node.annotation)
                if "ClassVar" not in annotation:
                    names.add(node.target.id)
        return names

    @staticmethod
    def _read_keys(from_wire: ast.FunctionDef) -> set[str] | None:
        args = from_wire.args
        params = [a.arg for a in args.posonlyargs + args.args
                  if a.arg not in ("cls", "self")]
        if not params:
            return None
        payload = params[0]
        keys: set[str] = set()
        for node in ast.walk(from_wire):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == payload and node.args:
                key = node.args[0]
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
                else:
                    return None
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == payload:
                if isinstance(node.slice, ast.Constant) \
                        and isinstance(node.slice.value, str):
                    keys.add(node.slice.value)
                else:
                    return None
        return keys or None

    # ------------------------------------------------------------------ #
    # sweep columns
    # ------------------------------------------------------------------ #
    def _check_columns(self, project: ProjectModel) -> Iterator[Finding]:
        columns = project.find_string_collection(COLUMNS)
        if columns is None:
            return  # no sweep table in this tree (fixture projects)
        col_file, col_line, names = columns
        registered = set(names)
        arity = len(names)

        coords = project.find_string_collection(COORDS)
        if coords is not None:
            coord_file, coord_line, coord_names = coords
            for name in coord_names:
                if name not in registered:
                    yield self.finding(
                        coord_file.relpath, coord_line,
                        f'{COORDS} entry "{name}" is not in {COLUMNS} '
                        f"({col_file.relpath}:{col_line})")

        for file in project.files:
            yield from self._check_add_rows(file, col_file, arity)
            yield from self._check_column_unions(
                file, registered, col_file, col_line)

    def _check_add_rows(self, file: SourceFile, col_file: SourceFile,
                        arity: int) -> Iterator[Finding]:
        if file is not col_file:
            return  # add_row producers live with the column registry
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "add_row"):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or node.keywords:
                continue  # dynamic arity: out of scope
            if len(node.args) != arity:
                yield self.finding(
                    file.relpath, node.lineno,
                    f"add_row passes {len(node.args)} values but "
                    f"{COLUMNS} declares {arity} columns")

    def _check_column_unions(self, file: SourceFile, registered: set[str],
                             col_file: SourceFile,
                             col_line: int) -> Iterator[Finding]:
        """``list(COORD_COLUMNS) + ["ok", ...]`` mentions real columns."""
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Add)):
                continue
            if not self._mentions_coords(node.left):
                continue
            if not isinstance(node.right, ast.List):
                continue
            for elt in node.right.elts:
                if isinstance(elt, ast.Constant) \
                        and isinstance(elt.value, str) \
                        and elt.value not in registered:
                    yield self.finding(
                        file.relpath, elt.lineno,
                        f'column "{elt.value}" is not in {COLUMNS} '
                        f"({col_file.relpath}:{col_line})")

    @staticmethod
    def _mentions_coords(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == COORDS:
                return True
        return False
