"""Option census: which values ever reach each optional parameter and
dataclass field of ``src/repro/``.

usage:
    census_options.py [--tree ROOT] [--verdicts OLD_CENSUS] > CENSUS.txt
    census_options.py --check

The first form lists every parameter that has a default and every
dataclass field under ``ROOT/src/repro`` and, per row, the distinct values
that reach it from *commands* (``src/repro`` itself, ``cli.py`` flags with
every ``ci.yml`` command line, ``benchmarks/bench_*.py``,
``benchmarks/harness/*.py``, ``examples/``) and from *tests* (``tests/``,
``benchmarks/harness/tests/``).  Matching is by callee name over stdlib
``ast``: ``x.f(...)`` reaches methods named ``f`` (or module ``f`` when
``x`` names that imported module), ``f(...)`` functions and classes;
forwarding is followed (an argument that is the caller's own
parameter, a ``self.x`` assigned from one, a ``cfg.x`` / ``spec.x`` naming a
dataclass field, an ``args.x`` naming a flag), ``**kwargs`` is resolved when
the dict is a literal in scope, ``dataclasses.replace`` credits the fields
it names.  A word the matcher cannot decide alone (``seam`` against
``tests``, ``paper``, ``derived``) is read from the rows of ``OLD_CENSUS``
that carry a note, so the archive is its own verdict file.

``--check`` (the CI gate, exact counts, no wall clock) exits 1 when a
parameter or field of the working tree has no row in
``benchmarks/results/CENSUS_options.txt``, or a row whose word is ``one``,
``tests`` or ``derived`` is still in the tree and its note does not start
with ``kept:``.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import shlex
import sys

HERE = pathlib.Path(__file__).resolve().parent
ARCHIVE = HERE / "results" / "CENSUS_options.txt"
WORDS = ("one", "tests", "seam", "derived", "two", "harness", "paper")
#: Base names an attribute is read off when it names a config field.
_HOLDERS = re.compile(
    r"(config|cfg|spec|policy|workload|profile|geometry|base)$"
)
_REQUIRED = "<required>"

KEEP_RULE = """\
Keep-rule (stated before the table; one word per row).  A row's values are
what reaches it from every caller the matcher found; "cmd" is the command
side, "tests" what only tests add.
  one      a single value from every caller, tests included: delete the
           parameter and inline the value (a bound becomes a module
           constant, not an option).
  tests    only tests pass a second value, and the tests are about the
           option itself (its validation, its own arithmetic): option and
           tests go, named with dispositions.
  seam     only tests pass a second value, and the value is how a test
           reaches behaviour that stays (a deadline, a frame budget, a
           crash point, a toy size): stays only when no fixture reaches
           the behaviour (a monkeypatched module constant, a parked
           replica, a held step); otherwise the value becomes a constant
           and the test a fixture.
  derived  every call site computes it from other inputs: compute it once,
           delete the field.
  two      two commands need different values (or a command computes it per
           call): stays.
  harness  passed by keyword from benchmarks/harness/*.py, which is frozen:
           stays, with the line named.
  paper    a parameter the paper names (Table 2 / Table 4, k, bucket and
           block sizes, disks, the lexer's rules): stays even at one value.
Counter fields - dataclass fields with a zero or empty default that no
caller constructs with a value and the code then assigns or augments - are
outputs, not options: listed once per class after the table, no word.
A row's word is the matcher's unless the row carries a note; a note is a
judgement the matcher cannot make (seam against tests, paper, derived, a
value that travels over the wire) and says what it rests on."""


# -- what the tree defines ---------------------------------------------------


class Node:
    """One parameter or dataclass field and everything that reaches it."""

    def __init__(self, key, path, line, default, optional):
        self.key = key
        self.path = path
        self.line = line
        self.default = default
        self.optional = optional
        # side -> set of literal texts / "<expr>" wildcards / Node refs
        self.values = {"cmd": set(), "tests": set()}
        self.omitted = {"cmd": False, "tests": False}
        self.sites = {"cmd": 0, "tests": 0}
        self.harness: list[str] = []


class Callable_:
    """A function, method or class constructor: ordered parameters."""

    def __init__(self, path, params, npositional, has_kwargs, has_varargs):
        self.path = path
        self.params = params  # [(name, Node)], positional ones first
        self.npositional = npositional
        self.has_kwargs = has_kwargs
        self.has_varargs = has_varargs
        self.forward_to = None  # callee name for (*args, **kwargs) shells
        self.method = False  # defined in a class body


def _text(node) -> str:
    text = ast.unparse(node).replace("|", "/")  # "|" separates the cells
    return text if len(text) <= 60 else text[:57] + "..."


def _module_consts(module: ast.Module) -> dict[str, ast.AST]:
    """Module-level ``NAME = value`` assignments."""
    return {
        stmt.targets[0].id: stmt.value
        for stmt in module.body
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    }


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = getattr(target, "id", getattr(target, "attr", ""))
        if name == "dataclass":
            return True
    return False


class Tree:
    """Definitions of ``src/repro`` plus the call sites that feed them."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.nodes: dict[str, Node] = {}
        self.by_name: dict[str, list[Callable_]] = {}
        self.classes: dict[str, dict] = {}  # name -> info
        self.fields: dict[str, list[Node]] = {}  # field name -> nodes
        #: attribute names ``src/repro`` assigns or augments on an object
        self.mutated: set[str] = set()
        self.flags: dict[str, dict] = {}  # dest -> {default, action, opt}
        self.flag_values: dict[str, set[str]] = {}
        self.commands_read: list[str] = []
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            self._define(path)
        for info in self.classes.values():
            self._inherit_init(info)

    # -- definitions --

    def _node(self, key, path, line, default, optional) -> Node:
        node = Node(key, path, line, default, optional)
        self.nodes[key] = node
        return node

    def _define(self, path: pathlib.Path) -> None:
        rel = str(path.relative_to(self.root))
        tree = ast.parse(path.read_text())
        for stmt in ast.walk(tree):
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = [
                    t for t in stmt.targets
                    if not (
                        isinstance(t, ast.Attribute)
                        and getattr(t.value, "id", "") == "self"
                    )
                ]
            elif isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Call) and getattr(
                stmt.func, "attr", ""
            ) in ("append", "extend", "update", "setdefault", "add"):
                targets = [stmt.func.value]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    self.mutated.add(target.attr)
        self._walk_defs(tree, "", rel, None)

    def _walk_defs(self, parent, prefix, rel, cls_info) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                fn = self._define_function(child, qual, rel, cls_info)
                if cls_info is not None:
                    cls_info["methods"][child.name] = (fn, child)
                self._walk_defs(child, qual + ".", rel, None)
            elif isinstance(child, ast.ClassDef):
                info = {
                    "name": child.name,
                    "rel": rel,
                    "bases": [
                        getattr(b, "id", getattr(b, "attr", ""))
                        for b in child.bases
                    ],
                    "methods": {},
                    "dataclass": _is_dataclass(child),
                    "fields": [],
                }
                self.classes[child.name] = info
                if info["dataclass"]:
                    self._define_fields(child, prefix + child.name, rel, info)
                self._walk_defs(child, prefix + child.name + ".", rel, info)
            elif not isinstance(child, (ast.expr, ast.Lambda)):
                self._walk_defs(child, prefix, rel, cls_info)

    def _define_function(self, fn, qual, rel, cls_info) -> Callable_:
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + list(
            args.defaults
        )
        params = []
        is_method = cls_info is not None and not any(
            getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list
        )
        for i, (arg, default) in enumerate(zip(positional, defaults)):
            if i == 0 and is_method:
                continue
            params.append(self._param(rel, qual, fn, arg, default))
        kwonly = [
            self._param(rel, qual, fn, arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        ]
        out = Callable_(
            rel, params + kwonly, len(params), args.kwarg is not None,
            args.vararg is not None,
        )
        out.method = cls_info is not None
        if args.vararg is not None and args.kwarg is not None:
            for call in ast.walk(fn):
                if (
                    isinstance(call, ast.Call)
                    and any(isinstance(a, ast.Starred) for a in call.args)
                    and any(k.arg is None for k in call.keywords)
                ):
                    out.forward_to = _callee_name(call)
        self.by_name.setdefault(fn.name, []).append(out)
        return out

    def _param(self, rel, qual, fn, arg, default):
        optional = default is not None
        shown = _text(default) if optional else _REQUIRED
        key = f"{rel}::{qual}({arg.arg})"
        return arg.arg, self._node(key, rel, fn.lineno, shown, optional)

    def _define_fields(self, cls, qual, rel, info) -> None:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            name = stmt.target.id
            optional = stmt.value is not None
            shown = _text(stmt.value) if optional else _REQUIRED
            if optional and "init=False" in shown:
                continue  # state the class keeps, not a constructor input
            node = self._node(
                f"{rel}::{qual}.{name}", rel, stmt.lineno, shown, optional
            )
            info["fields"].append((name, node))
            self.fields.setdefault(name, []).append(node)

    def _inherit_init(self, info) -> None:
        """The constructor a bare ``Class(...)`` call reaches."""
        seen = set()
        cur = info
        while cur is not None and cur["name"] not in seen:
            seen.add(cur["name"])
            if "__init__" in cur["methods"]:
                info["ctor"] = cur["methods"]["__init__"][0]
                return
            if cur["dataclass"]:
                fields = list(cur["fields"])
                info["ctor"] = Callable_(
                    cur["rel"], fields, len(fields), False, False
                )
                return
            cur = next(
                (self.classes[b] for b in cur["bases"] if b in self.classes),
                None,
            )
        info["ctor"] = None

    # -- flags (cli.py + ci.yml) --

    def read_cli(self) -> None:
        cli = self.root / "src" / "repro" / "cli.py"
        for call in ast.walk(ast.parse(cli.read_text())):
            if not (
                isinstance(call, ast.Call)
                and getattr(call.func, "attr", "") == "add_argument"
                and call.args
                and isinstance(call.args[0], ast.Constant)
            ):
                continue
            names = [
                a.value for a in call.args if isinstance(a, ast.Constant)
            ]
            dest = names[-1].lstrip("-").replace("-", "_")
            kw = {k.arg: k.value for k in call.keywords}
            action = kw.get("action")
            action = action.value if isinstance(action, ast.Constant) else ""
            if action == "store_true":
                default = "False"
            elif "default" in kw:
                default = _text(kw["default"])
            else:
                default = _REQUIRED if not names[0].startswith("-") else "None"
            entry = self.flags.setdefault(
                dest, {"defaults": set(), "action": action, "opts": set()}
            )
            entry["defaults"].add(default)
            entry["opts"].update(n for n in names if n.startswith("-"))
        ci = self.root / ".github" / "workflows" / "ci.yml"
        text = ci.read_text().replace("\\\n", " ") if ci.exists() else ""
        for line in text.splitlines():
            line = line.strip()
            if "python -m repro " not in line:
                continue
            self.commands_read.append("ci.yml: " + " ".join(line.split()))
            tokens = shlex.split(line)
            for i, token in enumerate(tokens):
                for dest, entry in self.flags.items():
                    if token not in entry["opts"]:
                        continue
                    if entry["action"] == "store_true":
                        value = "True"
                    else:
                        value = tokens[i + 1] if i + 1 < len(tokens) else "?"
                    self.flag_values.setdefault(dest, set()).add(value)

    def flag_literals(self, dest: str) -> set[str] | None:
        entry = self.flags.get(dest)
        if entry is None:
            return None
        out = set()
        for value in entry["defaults"] | self.flag_values.get(dest, set()):
            out.add(_canonical(value))
        return out


def _canonical(text: str) -> str:
    """``'4'`` and ``4``, ``'0.02'`` and ``0.02`` are one value; so are a
    flag's string and the literal a bench passes."""
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1]
    constant = re.fullmatch(r"(?:\w+\.)+([A-Z][A-Z0-9_]+)", text)
    if constant:
        return constant.group(1)  # loadgen.TOP_K, spelled bare
    try:
        number = float(text)
    except ValueError:
        return text
    return repr(int(number)) if number == int(number) else repr(number)


def _callee_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


# -- call sites --------------------------------------------------------------


class Scope:
    """Where an argument expression is evaluated: enclosing function,
    class, module — enough to follow a name one step back."""

    def __init__(self, tree, rel, side, consts, cls, fn, parent=None):
        self.tree = tree
        self.rel = rel
        self.side = side
        self.consts = consts  # the file's module-level constants
        self.cls = cls
        self.fn = fn
        self.parent = parent
        self.params: dict[str, Node] = {}
        self.locals: dict[str, list[ast.AST]] = {}
        self.dict_locals: dict[str, list] = {}
        #: names also bound in a way the matcher does not follow
        self.opaque: set[str] = set()
        if fn is not None:
            self._index_function()

    def _index_function(self) -> None:
        fn = self.fn
        for c in self.tree.by_name.get(fn.name, []):
            if c.path == self.rel:
                for name, node in c.params:
                    if node.line == fn.lineno:
                        self.params[name] = node
        for dec in fn.decorator_list:
            if (
                isinstance(dec, ast.Call)
                and getattr(dec.func, "attr", "") == "parametrize"
                and len(dec.args) >= 2
                and isinstance(dec.args[0], ast.Constant)
            ):
                names = [n.strip() for n in str(dec.args[0].value).split(",")]
                cases = getattr(dec.args[1], "elts", None)
                if cases is None:
                    continue  # a named list: the argument stays "varies"
                for j, name in enumerate(names):
                    if len(names) == 1:
                        picked = list(cases)
                    else:
                        picked = [
                            case.elts[j]
                            for case in cases
                            if len(getattr(case, "elts", [])) > j
                        ]
                    self.locals.setdefault(name, []).extend(picked)
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self.locals.setdefault(target.id, []).append(stmt.value)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)
                ):
                    self.dict_locals.setdefault(target.value.id, []).append(
                        (target.slice.value, stmt.value)
                    )
            elif isinstance(stmt, (ast.For, ast.comprehension)):
                target, it = stmt.target, stmt.iter
                if isinstance(target, ast.Name) and isinstance(
                    it, (ast.Tuple, ast.List)
                ):
                    self.locals.setdefault(target.id, []).extend(it.elts)
                else:
                    self._mark_opaque(target)
            elif isinstance(stmt, (ast.AugAssign, ast.NamedExpr)):
                self._mark_opaque(stmt.target)
            elif isinstance(stmt, ast.withitem) and stmt.optional_vars:
                self._mark_opaque(stmt.optional_vars)
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, (ast.Tuple, ast.List)):
                        self._mark_opaque(target)

    def _mark_opaque(self, target) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.opaque.add(node.id)
                self.locals.setdefault(node.id, [])

    def lookup(self, name: str):
        if name in self.params or name in self.locals:
            return self
        if self.parent is not None:
            return self.parent.lookup(name)
        return None


class Census:
    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.tree = Tree(root)
        self.tree.read_cli()
        self.files_read: list[str] = []
        self.helpers: dict[str, list[ast.Call]] = {}
        #: the current file's names for src/repro modules -> their paths
        self.modules: dict[str, str] = {}

    # -- resolving an argument expression to value tokens --

    def resolve(self, expr, scope: Scope, depth: int = 0) -> set:
        if depth > 6:
            return {f"<{_text(expr)}>"}
        if isinstance(expr, ast.Constant):
            return {_canonical(repr(expr.value))}
        if isinstance(expr, ast.UnaryOp) and isinstance(
            expr.operand, ast.Constant
        ):
            return {_canonical(_text(expr))}
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            if all(
                isinstance(n, (ast.Constant, ast.Tuple, ast.List, ast.Dict,
                               ast.Set, ast.Load, ast.UnaryOp, ast.USub))
                for n in ast.walk(expr)
            ):
                return {_text(expr)}
            return {f"<{_text(expr)}>"}
        if isinstance(expr, ast.IfExp):
            return self.resolve(expr.body, scope, depth + 1) | self.resolve(
                expr.orelse, scope, depth + 1
            )
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
            out = set()
            for value in expr.values:
                out |= self.resolve(value, scope, depth + 1)
            return out
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr, scope, depth)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(expr, scope, depth)
        return {f"<{_text(expr)}>"}

    def _resolve_name(self, expr, scope, depth) -> set:
        name = expr.id
        home = scope.lookup(name)
        if home is not None and name not in home.locals:
            return {home.params[name]}
        if home is not None:
            out = set()
            if name in home.params:
                out.add(home.params[name])
            if name in home.opaque:
                out.add(f"<{name}>")
            for value in home.locals[name]:
                if any(
                    isinstance(n, ast.Name) and n.id == name
                    for n in ast.walk(value)
                ):
                    out.add(f"<{_text(value)}>")
                else:
                    out |= self.resolve(value, home, depth + 1)
            return out
        value = scope.consts.get(name)
        if isinstance(value, (ast.Constant, ast.Tuple, ast.UnaryOp)):
            return self.resolve(value, scope, depth + 1)
        return {f"<{name}>"}

    def _resolve_attribute(self, expr, scope, depth) -> set:
        base, attr = expr.value, expr.attr
        if isinstance(base, ast.Name) and base.id == "args":
            literals = self.tree.flag_literals(attr)
            if literals is not None:
                return literals
        if isinstance(base, ast.Name) and base.id == "self" and scope.cls:
            info = self.tree.classes.get(scope.cls)
            assigned = []
            if info is not None and info["rel"] == scope.rel:
                for fn, fn_ast in info["methods"].values():
                    for stmt in ast.walk(fn_ast):
                        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                            continue
                        targets = (
                            stmt.targets
                            if isinstance(stmt, ast.Assign)
                            else [stmt.target]
                        )
                        for t in targets:
                            if (
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                and t.attr == attr
                                and stmt.value is not None
                            ):
                                assigned.append((fn_ast, stmt.value))
            if len(assigned) == 1:
                fn_ast, value = assigned[0]
                inner = Scope(
                    self.tree, scope.rel, scope.side, scope.consts,
                    scope.cls, fn_ast,
                )
                return self.resolve(value, inner, depth + 1)
        base_name = getattr(base, "id", getattr(base, "attr", ""))
        if _HOLDERS.search(base_name or ""):
            nodes = self.tree.fields.get(attr, [])
            if len(nodes) == 1:
                return {nodes[0]}
        return {f"<{_text(expr)}>"}

    # -- matching calls to definitions --

    def _callees(self, call: ast.Call, scope: Scope) -> list[Callable_]:
        name = _callee_name(call)
        func = call.func
        if not name:
            return []
        if name == "cls" and scope.cls in self.tree.classes:
            name = scope.cls
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", "") == "super"
            and scope.cls in self.tree.classes
        ):
            out = []
            for base in self.tree.classes[scope.cls]["bases"]:
                info = self.tree.classes.get(base)
                if info and func.attr in info["methods"]:
                    out.append(info["methods"][func.attr][0])
            return out
        out = []
        if name in self.tree.classes:
            ctor = self.tree.classes[name].get("ctor")
            if ctor is not None:
                while ctor.forward_to in self.tree.classes:
                    ctor = self.tree.classes[ctor.forward_to]["ctor"]
                out.append(ctor)
            return out
        # ``x.f(...)`` is a method call unless ``x`` names a module, and
        # then it reaches that module's function; ``f(...)`` is a function.
        module = None
        if isinstance(func, ast.Attribute):
            module = self.modules.get(ast.unparse(func.value), "")
        for cand in self.tree.by_name.get(name, []):
            if name.startswith("__") and name.endswith("__"):
                continue
            if module is None:
                fits = not cand.method
            elif module:
                fits = not cand.method and cand.path == module
            else:
                fits = cand.method
            if fits:
                out.append(cand)
        return out

    def _keywords(self, call: ast.Call, scope: Scope):
        """``[(name, expr)]`` including resolvable ``**`` splats, plus
        whether an unresolved splat remains."""
        out, opaque = [], False
        for kw in call.keywords:
            if kw.arg is not None:
                out.append((kw.arg, kw.value))
                continue
            pairs = self._splat(kw.value, scope)
            if pairs is None:
                opaque = True
            else:
                out.extend(pairs)
        return out, opaque

    def _splat(self, value, scope, depth: int = 0):
        if depth > 4:
            return None
        if isinstance(value, ast.Dict):
            pairs = []
            for k, v in zip(value.keys, value.values):
                if k is None:
                    inner = self._splat(v, scope, depth + 1)
                    if inner is None:
                        return None
                    pairs.extend(inner)
                elif isinstance(k, ast.Constant):
                    pairs.append((k.value, v))
                else:
                    return None
            return pairs
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", "") == "dict"
            and not value.args
        ):
            return [(k.arg, k.value) for k in value.keywords if k.arg]
        if isinstance(value, ast.Name):
            home = scope.lookup(value.id)
            sources = home.locals.get(value.id, []) if home else []
            if not sources and value.id in scope.consts:
                sources = [scope.consts[value.id]]
                home = scope
            if not sources:
                return None
            pairs = []
            for source in sources:
                inner = self._splat(source, home, depth + 1)
                if inner is None:
                    return None
                pairs.extend(inner)
            pairs.extend(home.dict_locals.get(value.id, []) if home else [])
            return pairs
        return None

    def _credit(self, call: ast.Call, scope: Scope, where: str) -> None:
        side = scope.side
        name = _callee_name(call)
        keywords, opaque = self._keywords(call, scope)
        if name in ("replace", "dc_replace", "_replace"):
            for kw_name, value in keywords:
                for node in self.tree.fields.get(kw_name, []):
                    node.values[side] |= self.resolve(value, scope)
                    node.sites[side] += 1
            return
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        callees = self._callees(call, scope)
        if not callees and name in self.helpers:
            # a local helper that splats its **kwargs into a src callee
            for inner in self.helpers[name]:
                for callee in self._callees(inner, scope):
                    for kw_name, value in keywords:
                        for pname, node in callee.params:
                            if pname == kw_name:
                                node.values[side] |= self.resolve(value, scope)
            return
        for callee in callees:
            names = [n for n, _ in callee.params]
            if len(call.args) > callee.npositional and not callee.has_varargs:
                continue
            if not callee.has_kwargs and any(
                k not in names for k, _ in keywords
            ):
                continue
            passed = set()
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred) or i >= callee.npositional:
                    break
                pname, node = callee.params[i]
                node.values[side] |= self.resolve(arg, scope)
                passed.add(pname)
            for kw_name, value in keywords:
                if kw_name in names:
                    node = callee.params[names.index(kw_name)][1]
                    node.values[side] |= self.resolve(value, scope)
                    passed.add(kw_name)
                    if scope.rel.startswith("benchmarks/harness/") and (
                        "/tests/" not in scope.rel
                    ):
                        node.harness.append(where)
            for pname, node in callee.params:
                node.sites[side] += 1
                if pname not in passed and not opaque and not starred:
                    node.omitted[side] = True

    def read_file(self, path: pathlib.Path, side: str) -> None:
        rel = str(path.relative_to(self.root))
        try:
            module = ast.parse(path.read_text())
        except SyntaxError:
            return
        top = Scope(self.tree, rel, side, _module_consts(module), None, None)
        self.modules = self._module_names(module, rel)
        # Local helpers that splat their own **kwargs into a callee.
        self.helpers = {}
        if not rel.startswith("src/"):
            for fn in ast.walk(module):
                if isinstance(
                    fn, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and fn.args.kwarg is not None:
                    forwards = [
                        call for call in ast.walk(fn)
                        if isinstance(call, ast.Call) and any(
                            k.arg is None
                            and getattr(k.value, "id", "") == fn.args.kwarg.arg
                            for k in call.keywords
                        )
                    ]
                    if forwards:
                        self.helpers[fn.name] = forwards
        self._visit(module, top, rel)

    def _module_names(self, module: ast.Module, rel: str) -> dict[str, str]:
        """The names a file binds to ``src/repro`` modules (``import a.b
        as x``, ``from a import b``, relative imports), each mapped to
        the module's path as definitions carry it."""

        def path_of(dotted: str) -> str | None:
            base = self.root / "src" / pathlib.Path(*dotted.split("."))
            for path in (base.with_suffix(".py"), base / "__init__.py"):
                if path.is_file():
                    return str(path.relative_to(self.root))
            return None

        names = {}
        package = pathlib.Path(rel).parent.parts[1:]  # src/repro/x -> repro.x
        for stmt in ast.walk(module):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    names[alias.asname or alias.name] = path_of(alias.name)
            elif isinstance(stmt, ast.ImportFrom):
                parts = []
                if stmt.level:
                    parts = list(package[: len(package) - stmt.level + 1])
                if stmt.module:
                    parts += stmt.module.split(".")
                for alias in stmt.names:
                    dotted = ".".join(parts + [alias.name])
                    names[alias.asname or alias.name] = path_of(dotted)
        return {name: path for name, path in names.items() if path}

    def _visit(self, parent, scope: Scope, rel: str) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = Scope(
                    self.tree, rel, scope.side, scope.consts, scope.cls,
                    child, parent=scope if scope.fn is not None else None,
                )
                for dec in child.decorator_list:
                    self._visit_expr(dec, scope, rel)
                for default in child.args.defaults + [
                    d for d in child.args.kw_defaults if d is not None
                ]:
                    self._visit_expr(default, scope, rel)
                self._visit(child, inner, rel)
            elif isinstance(child, ast.ClassDef):
                inner = Scope(
                    self.tree, rel, scope.side, scope.consts, child.name, None
                )
                self._visit(child, inner, rel)
            else:
                if isinstance(child, ast.Call):
                    self._credit(child, scope, f"{rel}:{child.lineno}")
                self._visit(child, scope, rel)

    def _visit_expr(self, expr, scope, rel) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._credit(node, scope, f"{rel}:{node.lineno}")

    def read_everything(self) -> None:
        root = self.root
        groups = [
            ("cmd", "src/repro/**/*.py",
             (root / "src" / "repro").rglob("*.py")),
            ("cmd", "benchmarks/*.py", (root / "benchmarks").glob("*.py")),
            ("cmd", "benchmarks/harness/*.py",
             (root / "benchmarks" / "harness").glob("*.py")),
            ("cmd", "examples/*.py", (root / "examples").glob("*.py")),
            ("tests", "tests/**/*.py", (root / "tests").rglob("*.py")),
            ("tests", "benchmarks/harness/tests/*.py",
             (root / "benchmarks" / "harness" / "tests").glob("*.py")),
        ]
        for side, label, paths in groups:
            paths = [p for p in sorted(paths) if p.name != "census_options.py"]
            self.files_read.append(f"{side:<5} {label} ({len(paths)} files)")
            for path in paths:
                self.read_file(path, side)

    # -- the fixpoint: follow forwarding references --

    def settle(self) -> None:
        """Put defaults in use where a caller omits the parameter, then
        run the forwarding references to a fixpoint and drop them."""
        nodes = list(self.tree.nodes.values())
        sides = ("cmd", "tests")
        for node in nodes:
            for side in sides:
                if node.optional and (
                    node.omitted[side]
                    # no command names it: reached by indirection (a
                    # registry, an RPC table), so on its default
                    or (side == "cmd" and not node.sites["cmd"])
                ):
                    node.values[side].add(_canonical(node.default))
        refs = [
            (node, side, ref)
            for node in nodes
            for side in sides
            for ref in node.values[side]
            if isinstance(ref, Node)
        ]
        changed = True
        while changed:
            changed = False
            for node, side, ref in refs:
                for other in sides:
                    incoming = {
                        v for v in ref.values[other]
                        if not isinstance(v, Node)
                    }
                    if other == "cmd" and not ref.optional and (
                        not ref.values[other]
                    ):
                        # a required parameter nothing was seen to feed
                        incoming = {f"<{ref.key.split('::')[1]}>"}
                    # what tests push through a forwarding layer arrives
                    # as a test value, whoever forwards it
                    target = "tests" if "tests" in (side, other) else "cmd"
                    if not incoming <= node.values[target]:
                        node.values[target] |= incoming
                        changed = True
        for node in nodes:
            for side in sides:
                node.values[side] = {
                    v for v in node.values[side] if not isinstance(v, Node)
                }


# -- the table ---------------------------------------------------------------


def counter_classes(census: Census) -> dict[str, list[Node]]:
    """Per dataclass, the fields nothing constructs with a value and the
    code then assigns or augments: outputs a run fills in, not options
    anyone sets."""
    out = {}
    for info in census.tree.classes.values():
        if not info["dataclass"]:
            continue
        nodes = [
            node for name, node in info["fields"]
            if node.optional
            and name in census.tree.mutated
            and (
                node.default in ("0", "0.0")
                or "default_factory" in node.default
            )
            and node.values["cmd"] | node.values["tests"]
            <= {_canonical(node.default)}
        ]
        if nodes:
            out[f"{info['rel']}::{info['name']}.*"] = nodes
    return out


def auto_word(node: Node) -> str:
    cmd, tests = node.values["cmd"], node.values["tests"]
    if node.harness:
        return "harness"
    if len(cmd) >= 2 or any(v.startswith("<") for v in cmd):
        return "two"
    if len(cmd | tests) >= 2:
        return "tests"
    return "one"


def read_archive(path: pathlib.Path) -> dict[str, tuple[str, str]]:
    """``{key: (word, note)}`` from an archived census."""
    rows = {}
    if not path.exists():
        return rows
    for raw in path.read_text().splitlines():
        if not raw.startswith("src/repro/") or "::" not in raw:
            continue
        cells = [c.strip() for c in raw.split(" | ")]
        key = cells[0].split()[0]
        word = cells[3] if len(cells) > 3 else ""
        note = cells[4] if len(cells) > 4 else ""
        if word in WORDS or word == "counters":
            rows[key] = (word, note)
    return rows


def _show(values: set[str]) -> str:
    if not values:
        return "-"
    ordered = sorted(values, key=lambda v: (v.startswith("<"), v))
    text = ", ".join(ordered[:6])
    if len(ordered) > 6:
        text += f", +{len(ordered) - 6} more"
    return text


def emit(census: Census, verdicts: dict[str, tuple[str, str]]) -> str:
    counters = counter_classes(census)
    in_counter = {n.key for nodes in counters.values() for n in nodes}
    lines = []
    totals = {word: 0 for word in WORDS}
    rows = 0
    current = None
    for node in sorted(
        census.tree.nodes.values(), key=lambda n: (n.path, n.line, n.key)
    ):
        if node.key in in_counter:
            continue
        if not node.optional:
            continue
        if node.path != current:
            current = node.path
            lines.append("")
            lines.append(f"-- {current}")
        word, note = verdicts.get(node.key, ("", ""))
        if not note:
            word = auto_word(node)
        totals[word] += 1
        rows += 1
        cells = [
            f"{node.key} @{node.line} ={node.default}",
            "cmd: " + _show(node.values["cmd"]),
            "tests: " + _show(node.values["tests"] - node.values["cmd"]),
            word,
        ]
        if node.harness:
            note = note or "pinned by " + ", ".join(
                sorted(set(node.harness))[:3]
            )
        if note:
            cells.append(note)
        lines.append(" | ".join(cells))
    lines.append("")
    lines.append("-- counter and result-record classes (one row per class)")
    for key, nodes in sorted(counters.items()):
        names = ", ".join(n.key.rsplit(".", 1)[1] for n in nodes)
        lines.append(
            f"{key} @{nodes[0].line} | {len(nodes)} fields nothing "
            f"constructs with a value: {names} | - | counters | {names}"
        )
    summary = [
        f"rows: {rows} optional parameters and dataclass fields, plus "
        f"{len(counters)} counter classes holding "
        f"{sum(len(n) for n in counters.values())} fields",
        "per word: " + ", ".join(f"{w} {totals[w]}" for w in WORDS),
    ]
    return "\n".join(summary + lines) + "\n"


def check(root: pathlib.Path) -> int:
    rows = read_archive(ARCHIVE)
    counters = {
        key[:-1] + name
        for key, (word, names) in rows.items()
        if word == "counters"
        for name in names.split(", ")
    }
    keys = {n.key for n in Tree(root).nodes.values() if n.optional}
    missing = sorted(k for k in keys if k not in rows and k not in counters)
    lingering = sorted(
        k for k in keys
        if rows.get(k, ("", ""))[0] in ("one", "tests", "derived")
        and not rows[k][1].startswith("kept:")
    )
    for key in missing:
        print(f"no census row: {key}")
    for key in lingering:
        print(f"'{rows[key][0]}' row still in the tree: {key}")
    print(
        f"census check: {len(keys)} optional parameters and fields in the "
        f"tree, {len(missing)} without a row, {len(lingering)} deletable "
        "rows still present"
    )
    return 1 if missing or lingering else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=str(HERE.parent))
    parser.add_argument("--verdicts", default=None)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.tree).resolve()
    if args.check:
        return check(root)
    census = Census(root)
    census.read_everything()
    census.settle()
    verdicts = (
        read_archive(pathlib.Path(args.verdicts)) if args.verdicts else {}
    )
    print(
        "Tool: benchmarks/census_options.py "
        "(stdlib ast; its docstring is the method)."
    )
    print("Read:")
    for line in census.files_read:
        print("  " + line)
    print("  cmd   src/repro/cli.py flags, with every ci.yml command line:")
    for line in census.tree.commands_read:
        print("          " + line.removeprefix("ci.yml: "))
    print()
    print(KEEP_RULE)
    print()
    sys.stdout.write(emit(census, verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
