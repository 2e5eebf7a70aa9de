"""RPL002 — nondeterministic iteration order.

In the order-sensitive packages (``runtime/``, ``partition/``,
``core/``) the iteration order of many loops *is* the message order, the
rank order, or the partition assignment order: boundary-exchange packets
are priced and delivered in loop order, placement strategies assign
ranks in loop order, and the chaos injector consumes one seeded RNG draw
per packet **in packet order** — so an order flip silently re-maps which
packet gets lost, destroying byte-identical fault traces even though
every individual draw is seeded.

Python ``set``/``frozenset`` iteration order depends on insertion
history and element hashes (and, for strings, on ``PYTHONHASHSEED``), so
iterating one in these packages is a reproducibility hazard.  The rule
tracks set-ness through local assignments, annotations (including
``Dict[..., Set[...]]`` lookups), and set operators, and flags

* ``for x in <set-like>`` loops and comprehensions, and
* ``list(<set-like>)`` / ``tuple(<set-like>)`` / ``enumerate(<set-like>)``
  materializations,

unless the iterable is first passed through ``sorted(...)``.  Loops
whose body is genuinely order-independent can carry a
``# repro-lint: disable=RPL002`` pragma with a justification.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from ..core import FileContext, Finding, LintRule, Registry

_SET_ANN = re.compile(r"^(typing\.)?(AbstractSet|Set|FrozenSet|set|frozenset)\b")
_SET_VALUED_MAP_ANN = re.compile(
    r"^(typing\.)?(Dict|dict|Mapping|MutableMapping|DefaultDict|defaultdict)"
    r"\[.*?(AbstractSet|Set|FrozenSet|set|frozenset)\["
)
_SET_CONTAINER_ANN = re.compile(
    r"^(typing\.)?(List|list|Sequence|Tuple|tuple)"
    r"\[.*?(AbstractSet|Set|FrozenSet|set|frozenset)\["
)

_SET_RETURNING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}

_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: consumers whose result does not depend on the argument's iteration
#: order — a generator expression fed directly into one of these may
#: iterate a set freely
_ORDER_INSENSITIVE = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "min",
    "max",
    "len",
    "any",
    "all",
}


def _ann_kind(annotation: Optional[ast.expr]) -> Optional[str]:
    if annotation is None:
        return None
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return None
    text = text.replace('"', "").replace("'", "").strip()
    if text.startswith("Optional["):
        text = text[len("Optional[") : -1]
    if _SET_ANN.match(text):
        return "set"
    if _SET_VALUED_MAP_ANN.match(text):
        return "set_map"
    if _SET_CONTAINER_ANN.match(text):
        return "set_container"
    return None


class _AttrInfo:
    """Module-wide attribute classification from annotations/assignments."""

    def __init__(self, tree: ast.Module) -> None:
        self.sets: Set[str] = set()
        self.set_maps: Set[str] = set()
        self.set_containers: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ):
                self._record(node.target.attr, _ann_kind(node.annotation))

    def _record(self, name: str, kind: Optional[str]) -> None:
        if kind == "set":
            self.sets.add(name)
        elif kind == "set_map":
            self.set_maps.add(name)
        elif kind == "set_container":
            self.set_containers.add(name)


class _Scope:
    def __init__(self) -> None:
        self.sets: Set[str] = set()
        self.set_maps: Set[str] = set()
        self.set_containers: Set[str] = set()


class _Taint:
    """Light intra-function taint: which expressions are set-valued."""

    def __init__(self, attrs: _AttrInfo) -> None:
        self.attrs = attrs
        self.scopes: List[_Scope] = [_Scope()]

    # ------------------------------------------------------------------
    @property
    def scope(self) -> _Scope:
        return self.scopes[-1]

    def _lookup(self, name: str, field: str) -> bool:
        return any(name in getattr(s, field) for s in reversed(self.scopes))

    # ------------------------------------------------------------------
    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._lookup(node.id, "sets")
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs.sets
        if isinstance(node, ast.Subscript):
            return self.is_set_map(node.value) or self.is_set_container(
                node.value
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, _SET_OPERATORS
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set(node.body) or self.is_set(node.orelse)
        if isinstance(node, ast.BoolOp):
            return any(self.is_set(v) for v in node.values)
        if isinstance(node, ast.Call):
            return self._call_is_set(node)
        return False

    def is_set_map(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self._lookup(node.id, "set_maps")
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs.set_maps
        return False

    def is_set_container(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self._lookup(node.id, "set_containers")
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs.set_containers
        return False

    def _call_is_set(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_RETURNING_METHODS and self.is_set(
                func.value
            ):
                return True
            # dict.fromkeys(set_like) iterates in the set's order
            if (
                func.attr == "fromkeys"
                and node.args
                and self.is_set(node.args[0])
            ):
                return True
            # d.get(k, default) on a Dict[..., Set[...]]
            if func.attr == "get" and self.is_set_map(func.value):
                return True
            if func.attr == "pop" and self.is_set_map(func.value):
                return True
            if func.attr == "setdefault" and self.is_set_map(func.value):
                return True
            if func.attr == "copy" and self.is_set(func.value):
                return True
        return False

    # ------------------------------------------------------------------
    # assignment tracking
    # ------------------------------------------------------------------
    def _classify_value(self, value: ast.expr) -> Optional[str]:
        if self.is_set(value):
            return "set"
        # aliases (``subs = self._subscribers``) keep the value's kind,
        # so lookups through the alias stay visible
        if self.is_set_map(value):
            return "set_map"
        if self.is_set_container(value):
            return "set_container"
        if isinstance(value, ast.ListComp) and self.is_set(value.elt):
            return "set_container"
        if isinstance(value, (ast.List, ast.Tuple)) and value.elts and all(
            self.is_set(e) for e in value.elts
        ):
            return "set_container"
        return None

    def _bind(self, name: str, kind: Optional[str]) -> None:
        scope = self.scope
        scope.sets.discard(name)
        scope.set_maps.discard(name)
        scope.set_containers.discard(name)
        if kind == "set":
            scope.sets.add(name)
        elif kind == "set_map":
            scope.set_maps.add(name)
        elif kind == "set_container":
            scope.set_containers.add(name)

    def assign(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if not isinstance(target, ast.Name) or value is None:
            return
        self._bind(target.id, self._classify_value(value))

    def ann_assign(self, node: ast.AnnAssign) -> None:
        kind = _ann_kind(node.annotation)
        if isinstance(node.target, ast.Name):
            if kind is None and node.value is not None:
                kind = self._classify_value(node.value)
            self._bind(node.target.id, kind)

    def bind_arg(self, arg: ast.arg) -> None:
        kind = _ann_kind(arg.annotation)
        if kind is not None:
            self._bind(arg.arg, kind)


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, rule: "SetIterationRule") -> None:
        self.ctx = ctx
        self.rule = rule
        self.taint = _Taint(_AttrInfo(ctx.tree))
        self.findings: List[Finding] = []
        self._exempt: Set[int] = set()

    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            self.ctx.finding(
                node,
                self.rule.code,
                f"{what} iterates in hash/insertion-dependent order in an"
                " order-sensitive package; wrap it in sorted(...) or"
                " justify with a disable pragma",
            )
        )

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self.taint.is_set(iter_node):
            self._flag(iter_node, "iterating a set here")

    # ------------------------------------------------------------------
    def _enter_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.taint.scopes.append(_Scope())
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            self.taint.bind_arg(arg)
        self.generic_visit(node)
        self.taint.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # ------------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self.taint.assign(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self.taint.ann_assign(node)

    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators: List[ast.comprehension]) -> None:
        for gen in generators:
            self._check_iter(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if id(node) not in self._exempt:
            self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    # set comprehensions over sets produce sets again — the *result* is
    # flagged wherever its order is consumed, so the comprehension body
    # itself is exempt (order inside a set build cannot leak)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE:
            # sorted(v for v in some_set) is fine: the consumer imposes
            # (or ignores) order, so the set's order cannot leak
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._exempt.add(id(arg))
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "enumerate")
            and len(node.args) == 1
            and self.taint.is_set(node.args[0])
        ):
            self._flag(node, f"{func.id}() over a set")
        self.generic_visit(node)


@Registry.register
class SetIterationRule(LintRule):
    code = "RPL002"
    name = "nondeterministic-iteration"
    description = (
        "set/frozenset iteration order feeds rank, message, or partition"
        " order in runtime/, partition/ and core/; iterate sorted(...)"
        " instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.is_order_sensitive(ctx.path):
            return
        visitor = _Visitor(ctx, self)
        visitor.visit(ctx.tree)
        yield from visitor.findings
