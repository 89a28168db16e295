"""Message-schema conformance rules: ``PROTO-MSG`` and ``KERNEL-EQ``.

The repo's protocols speak in *tagged tuples*: an outbox maps a neighbor
to ``(_TAG, payload...)`` where the tag is a module-level int constant,
and handlers dispatch on ``payload[0]`` (``tag = payload[0]; if tag ==
_ADV: ...``). A ``VectorKernel`` companion speaks the same schema through
``ops.emit(..., tag=_FIN, materialize=fn)`` and ``inbox.tag == _JOIN``
masks. The round bounds in the source paper are derived from exactly this
message-level structure — and nothing checks it statically: a tag sent by
one tier and matched by no handler in the other is a silent protocol hole
the equivalence harness only finds by running.

Both rules here are :attr:`~repro.analysis.rules.Rule.project_only` —
they need the :class:`~repro.analysis.project.ProjectModel` to resolve
tag constants across modules (``from repro.core.distributed import
_ID_TAG``), follow ``Algorithm.vector_kernel = Kernel`` companion links
into other files, and merge schemas across class hierarchies. Per-file
mode skips them entirely.

**PROTO-MSG** infers each most-derived ``NodeAlgorithm``'s schema — tags
and arities *sent* (dict-literal / dict-comprehension values and
``outbox[k] = (...)`` stores in round methods) vs. tags *handled*
(``payload[0]`` / tag-variable / ``inbox.tag`` comparisons, membership
tests) — and flags: sent-but-never-handled (unless the handler has a
catch-all: an ``else`` arm on the tag dispatch, or an unguarded
``payload[i]`` access that consumes every remaining tag),
handled-but-never-sent, per-tag send-arity conflicts, and handler
accesses ``payload[i]`` beyond every sent arity of that tag. Untagged
protocols (plain-object payloads, e.g. broadcast/aggregate) have no schema
and are skipped.

**KERNEL-EQ** cross-checks each linked ``VectorKernel`` against its
interpreted class: every column materialized via ``ops.columns(...)``
must be declared in the class-level ``dtypes`` (and vice versa), and
every tag the kernel emits or filters on must lie inside the interpreted
schema, with emit arity (from the ``materialize=`` function's return
tuple or a literal ``payload=``) matching an interpreted send arity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.project import ProjectModel
from repro.analysis.rules import (
    Finding,
    Rule,
    _dotted,
    _finding,
    register_rule,
)

__all__ = ["ProtoMsgRule", "KernelEqRule", "class_schema", "kernel_facts"]


@dataclass(frozen=True)
class TagUse:
    """One send/handle/emit of a message tag, anchored to its AST node."""

    value: object  # the resolved tag constant (int or str)
    name: str  # symbolic spelling at the use site, e.g. "_ADV"
    arity: int | None  # payload tuple length; None when unknowable
    path: str
    node: ast.AST = field(compare=False, hash=False)

    def label(self) -> str:
        return f"{self.name} (= {self.value!r})"


@dataclass
class Schema:
    """Message schema of one interpreted class (or merged group)."""

    sends: list[TagUse] = field(default_factory=list)
    handles: list[TagUse] = field(default_factory=list)
    #: Guarded payload accesses: ``(tag value, index accessed, node, path)``.
    accesses: list[tuple[object, int, ast.AST, str]] = field(default_factory=list)
    catch_all: bool = False

    def merge(self, other: "Schema") -> None:
        self.sends.extend(other.sends)
        self.handles.extend(other.handles)
        self.accesses.extend(other.accesses)
        self.catch_all = self.catch_all or other.catch_all


@dataclass
class KernelFacts:
    """What a ``VectorKernel`` declares, materializes, emits, and filters."""

    declared: dict[str, ast.AST] = field(default_factory=dict)
    materialized: dict[str, ast.AST] = field(default_factory=dict)
    uses_columns: bool = False
    emits: list[TagUse] = field(default_factory=list)
    handles: list[TagUse] = field(default_factory=list)


_SEND_EXEMPT_METHODS = frozenset({"__init__", "result"})


def _methods(cls: ast.ClassDef):
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def _const_index(sub: ast.Subscript) -> object | None:
    index = sub.slice
    if isinstance(index, ast.Constant):
        return index.value
    return None


def _scan_sends(model: ProjectModel, info) -> list[TagUse]:
    """Tagged-tuple sends in round methods: dict values, dict-comprehension
    values, and subscript stores (``outbox[k] = (_TAG, ...)``). Pairs with
    string-constant keys are result/record dicts, not outboxes."""
    sends: list[TagUse] = []
    for method in _methods(info.node):
        if method.name in _SEND_EXEMPT_METHODS:
            continue
        for sub in ast.walk(method):
            values: list[ast.AST] = []
            if isinstance(sub, ast.Dict):
                for key, value in zip(sub.keys, sub.values):
                    if key is None:  # **expansion
                        continue
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        continue
                    values.append(value)
            elif isinstance(sub, ast.DictComp):
                values.append(sub.value)
            elif (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Subscript)
            ):
                values.append(sub.value)
            for value in values:
                if not isinstance(value, ast.Tuple) or not value.elts:
                    continue
                first = value.elts[0]
                if not isinstance(first, (ast.Name, ast.Attribute)):
                    continue
                tag = model.constant_value(info.module, first)
                if tag is None:
                    continue
                sends.append(TagUse(
                    tag, _dotted(first) or "?", len(value.elts),
                    info.path, value,
                ))
    return sends


def _scan_handlers(model: ProjectModel, info) -> Schema:
    """Tag comparisons, guarded payload accesses, and catch-all detection.

    A *catch-all* means the handler consumes tags it does not name: an
    ``else`` arm (or non-tag ``elif``) on a tag dispatch, or a guard-style
    body where an unguarded ``payload[i≥1]`` access follows the named
    guards (e.g. ACK/FIN guards, then ``item = payload[1]`` for
    everything that fell through).
    """
    schema = Schema()
    for method in _methods(info.node):
        tagvars: dict[str, str] = {}  # tag variable -> payload variable
        payload_vars: set[str] = set()

        for sub in ast.walk(method):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Subscript)
                and isinstance(sub.value.value, ast.Name)
                and _const_index(sub.value) == 0
            ):
                tagvars[sub.targets[0].id] = sub.value.value.id
                payload_vars.add(sub.value.value.id)

        def tag_side(expr: ast.AST) -> str | None:
            """Payload var behind a tag expression ('' for ``.tag`` masks),
            None when the expression is not a tag read."""
            if isinstance(expr, ast.Name) and expr.id in tagvars:
                return tagvars[expr.id]
            if (
                isinstance(expr, ast.Subscript)
                and isinstance(expr.value, ast.Name)
                and _const_index(expr) == 0
            ):
                payload_vars.add(expr.value.id)
                return expr.value.id
            if isinstance(expr, ast.Attribute) and expr.attr == "tag":
                return ""
            return None

        def compare_values(cmp: ast.Compare):
            if len(cmp.ops) != 1 or len(cmp.comparators) != 1:
                return None
            left, op, right = cmp.left, cmp.ops[0], cmp.comparators[0]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for tag_expr, const_expr in ((left, right), (right, left)):
                    pv = tag_side(tag_expr)
                    if pv is None:
                        continue
                    value = model.constant_value(info.module, const_expr)
                    if value is None:
                        continue
                    name = _dotted(const_expr) or repr(value)
                    return pv, [(value, name)]
            elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                right, (ast.Tuple, ast.List, ast.Set)
            ):
                pv = tag_side(left)
                if pv is None:
                    return None
                out = []
                for elt in right.elts:
                    value = model.constant_value(info.module, elt)
                    if value is not None:
                        out.append((value, _dotted(elt) or repr(value)))
                if out:
                    return pv, out
            return None

        for sub in ast.walk(method):
            if isinstance(sub, ast.Compare):
                res = compare_values(sub)
                if res is not None:
                    for value, name in res[1]:
                        schema.handles.append(
                            TagUse(value, name, None, info.path, sub)
                        )

        guarded: set[int] = set()  # ids of subscripts inside tag-guard arms
        seen_ifs: set[int] = set()

        def scan_if(stmt: ast.If) -> bool:
            seen_ifs.add(id(stmt))
            if not isinstance(stmt.test, ast.Compare):
                return False
            res = compare_values(stmt.test)
            if res is None:
                return False
            pv, values = res
            single_eq = (
                isinstance(stmt.test.ops[0], ast.Eq) and len(values) == 1
            )
            for body_stmt in stmt.body:
                for sub in ast.walk(body_stmt):
                    if not isinstance(sub, ast.Subscript):
                        continue
                    guarded.add(id(sub))
                    index = _const_index(sub)
                    if (
                        single_eq
                        and pv
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == pv
                        and isinstance(index, int)
                        and index >= 1
                    ):
                        schema.accesses.append(
                            (values[0][0], index, sub, info.path)
                        )
            if stmt.orelse:
                if len(stmt.orelse) == 1 and isinstance(stmt.orelse[0], ast.If):
                    if not scan_if(stmt.orelse[0]):
                        schema.catch_all = True
                else:
                    schema.catch_all = True
            return True

        for sub in ast.walk(method):
            if isinstance(sub, ast.If) and id(sub) not in seen_ifs:
                scan_if(sub)

        for sub in ast.walk(method):
            index = _const_index(sub) if isinstance(sub, ast.Subscript) else None
            if (
                isinstance(sub, ast.Subscript)
                and id(sub) not in guarded
                and isinstance(sub.value, ast.Name)
                and sub.value.id in payload_vars
                and isinstance(index, int)
                and index >= 1
                and isinstance(sub.ctx, ast.Load)
            ):
                schema.catch_all = True
    return schema


def class_schema(model: ProjectModel, info) -> Schema:
    """Sends + handles of one class (no ancestors, no kernel); cached."""
    cache = model.cache.setdefault("protocol/schema", {})
    if info.qualname not in cache:
        schema = _scan_handlers(model, info)
        schema.sends = _scan_sends(model, info)
        cache[info.qualname] = schema
    return cache[info.qualname]


def _ancestry(model: ProjectModel, info):
    """The class and every resolved ancestor present in the model."""
    seen: set[str] = set()
    queue = [info.qualname]
    while queue:
        qual = queue.pop(0)
        if qual in seen:
            continue
        seen.add(qual)
        current = model.classes.get(qual)
        if current is None:
            continue
        yield current
        queue.extend(model._resolved_bases(current))


def group_schema(model: ProjectModel, info) -> Schema:
    """Merged schema of a class and its resolved ancestors."""
    merged = Schema()
    for member in _ancestry(model, info):
        merged.merge(class_schema(model, member))
    return merged


def _linked_kernel(model: ProjectModel, info):
    """The class's (or nearest ancestor's) resolved kernel companion."""
    for member in _ancestry(model, info):
        if member.vector_kernel is not None:
            return model.classes.get(member.vector_kernel)
    return None


def _materializer_arity(model: ProjectModel, info, expr: ast.AST, tag) -> int | None:
    """Tuple arity a ``materialize=`` function returns for ``tag``, when uniform.

    A returned tuple led by another tag constant belongs to that tag, so
    one materializer may serve a batch that mixes tags.
    """
    dotted = _dotted(expr)
    if dotted is None:
        return None
    qual = model.resolve(info.module, dotted)
    fn = model.functions.get(qual) if qual else None
    if fn is None:
        return None
    arities = set()
    for sub in ast.walk(fn.node):
        if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Tuple):
            elts = sub.value.elts
            led_by = model.constant_value(fn.module, elts[0]) if elts else None
            if led_by is None or led_by == tag:
                arities.add(len(elts))
    return arities.pop() if len(arities) == 1 else None


def _emitted_tags(tag_expr: ast.AST | None) -> list[ast.AST]:
    """The tag expressions an ``emit``'s ``tag=`` names: the expression
    itself, or both branches of a per-message ``np.where(mask, A, B)``."""
    if (
        isinstance(tag_expr, ast.Call)
        and isinstance(tag_expr.func, ast.Attribute)
        and tag_expr.func.attr == "where"
        and len(tag_expr.args) == 3
    ):
        return tag_expr.args[1:]
    return [tag_expr]


def _scan_emits(model: ProjectModel, info, call: ast.Call) -> list[TagUse]:
    kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
    out: list[TagUse] = []
    for tag_expr in _emitted_tags(kwargs.get("tag")):
        if not isinstance(tag_expr, (ast.Name, ast.Attribute)):
            continue
        value = model.constant_value(info.module, tag_expr)
        if value is not None:
            arity = None
            materializer = kwargs.get("materialize")
            if isinstance(materializer, (ast.Name, ast.Attribute)):
                arity = _materializer_arity(model, info, materializer, value)
            out.append(TagUse(
                value, _dotted(tag_expr) or "?", arity, info.path, call,
            ))
    payload = kwargs.get("payload")
    if (
        isinstance(payload, ast.Tuple)
        and payload.elts
        and isinstance(payload.elts[0], (ast.Name, ast.Attribute))
    ):
        value = model.constant_value(info.module, payload.elts[0])
        if value is not None:
            out.append(TagUse(
                value, _dotted(payload.elts[0]) or "?", len(payload.elts),
                info.path, call,
            ))
    return out


def kernel_facts(model: ProjectModel, info) -> KernelFacts:
    """Declared dtypes, materialized columns, emitted/filtered tags; cached."""
    cache = model.cache.setdefault("protocol/kernel", {})
    if info.qualname in cache:
        return cache[info.qualname]
    facts = KernelFacts()
    for item in info.node.body:
        if (
            isinstance(item, ast.Assign)
            and len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name)
            and item.targets[0].id == "dtypes"
            and isinstance(item.value, ast.Dict)
        ):
            for key in item.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    facts.declared[key.value] = key
    for method in _methods(info.node):
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(method):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        column_vars: set[str] = set()
        for sub in ast.walk(method):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "columns"
            ):
                continue
            facts.uses_columns = True
            parent = parents.get(sub)
            if isinstance(parent, ast.Subscript) and parent.value is sub:
                key = _const_index(parent)
                if isinstance(key, str):
                    facts.materialized.setdefault(key, parent)
            elif (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)
            ):
                column_vars.add(parent.targets[0].id)
        for sub in ast.walk(method):
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in column_vars
            ):
                key = _const_index(sub)
                if isinstance(key, str):
                    facts.materialized.setdefault(key, sub)
        for sub in ast.walk(method):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "emit"
            ):
                facts.emits.extend(_scan_emits(model, info, sub))
    facts.handles = _scan_handlers(model, info).handles
    cache[info.qualname] = facts
    return facts


def _most_derived_algorithms(model: ProjectModel):
    """Algorithm classes that are not a base of another algorithm class —
    the granularity protocols are analyzed at, so a schema split across a
    base/subclass pair is judged once, merged."""
    algorithms = model.node_algorithm_classes()
    used_as_base: set[str] = set()
    for info in algorithms:
        for base in model._resolved_bases(info):
            used_as_base.add(base)
    return [info for info in algorithms if info.qualname not in used_as_base]


class ProtoMsgRule(Rule):
    """Message-schema conformance across the interpreted/kernel split."""

    name = "PROTO-MSG"
    summary = (
        "message tag sent but never handled, handled but never sent, or "
        "sent/destructured with mismatched payload arity"
    )
    scope = "whole program (--project mode only)"
    project_only = True

    def check(self, module, tree, path):
        return []

    def check_model(self, model: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        for info in _most_derived_algorithms(model):
            schema = group_schema(model, info)
            kernel = _linked_kernel(model, info)
            handles = list(schema.handles)
            emitted: list[TagUse] = []
            if kernel is not None:
                facts = kernel_facts(model, kernel)
                handles.extend(facts.handles)
                emitted.extend(facts.emits)
            if not schema.sends and not emitted:
                continue  # untagged protocol (or pure handler class)

            short = info.qualname.rsplit(".", 1)[-1]
            sent_values = {use.value for use in schema.sends} | {
                use.value for use in emitted
            }
            handled_values = {use.value for use in handles} | {
                value for value, _, _, _ in schema.accesses
            }

            if handles and not schema.catch_all:
                flagged: set[object] = set()
                for use in sorted(
                    schema.sends, key=lambda u: (u.path, u.node.lineno)
                ):
                    if use.value in handled_values or use.value in flagged:
                        continue
                    flagged.add(use.value)
                    findings.append(_finding(
                        self, use.path, use.node,
                        f"{short} sends tag {use.label()} but no handler "
                        "in the class (or its kernel companion) matches "
                        "it — the message is silently dropped on receipt",
                    ))
            if sent_values:
                flagged = set()
                for use in sorted(
                    handles, key=lambda u: (u.path, u.node.lineno)
                ):
                    if use.value in sent_values or use.value in flagged:
                        continue
                    flagged.add(use.value)
                    findings.append(_finding(
                        self, use.path, use.node,
                        f"{short} handles tag {use.label()} but nothing "
                        "in the class (or its kernel companion) ever "
                        "sends it — dead protocol arm or missing send",
                    ))

            arities: dict[object, set[int]] = {}
            first_send: dict[object, TagUse] = {}
            for use in sorted(
                schema.sends + emitted, key=lambda u: (u.path, u.node.lineno)
            ):
                if use.arity is not None:
                    arities.setdefault(use.value, set()).add(use.arity)
                    first_send.setdefault(use.value, use)
            for value, sizes in sorted(arities.items(), key=lambda i: repr(i[0])):
                if len(sizes) > 1:
                    use = first_send[value]
                    findings.append(_finding(
                        self, use.path, use.node,
                        f"{short} sends tag {use.label()} with conflicting "
                        f"payload arities {sorted(sizes)}; a handler "
                        "destructuring one shape breaks on the other",
                    ))
            for value, index, node, path in schema.accesses:
                if value in arities and max(arities[value]) <= index:
                    name = next(
                        (u.name for u in schema.sends + emitted
                         if u.value == value), repr(value),
                    )
                    findings.append(_finding(
                        self, path, node,
                        f"{short} handler reads payload[{index}] for tag "
                        f"{name} (= {value!r}), but every send of that tag "
                        f"has arity {max(arities[value])} — the access "
                        "raises IndexError at runtime",
                    ))
        return findings


class KernelEqRule(Rule):
    """Static kernel/interpreted cross-check for linked companions."""

    name = "KERNEL-EQ"
    summary = (
        "VectorKernel companion diverges from its interpreted class: "
        "dtypes vs materialized columns, or kernel tags outside the "
        "interpreted schema"
    )
    scope = "whole program (--project mode only)"
    project_only = True

    def check(self, module, tree, path):
        return []

    def check_model(self, model: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        checked: set[str] = set()
        for info in _most_derived_algorithms(model):
            kernel = _linked_kernel(model, info)
            if kernel is None or kernel.qualname in checked:
                continue
            checked.add(kernel.qualname)
            facts = kernel_facts(model, kernel)
            schema = group_schema(model, info)
            kshort = kernel.qualname.rsplit(".", 1)[-1]
            ishort = info.qualname.rsplit(".", 1)[-1]

            for name, node in sorted(facts.materialized.items()):
                if name not in facts.declared:
                    findings.append(_finding(
                        self, kernel.path, node,
                        f"{kshort} materializes column {name!r} that its "
                        "dtypes declaration does not name; the fabric "
                        "cannot allocate an undeclared column",
                    ))
            if facts.uses_columns:
                for name, node in sorted(facts.declared.items()):
                    if name not in facts.materialized:
                        findings.append(_finding(
                            self, kernel.path, node,
                            f"{kshort} declares dtype {name!r} but never "
                            "materializes that column via ops.columns(); "
                            "dead state the interpreted class cannot see",
                        ))

            interp_tags = {use.value for use in schema.sends} | {
                use.value for use in schema.handles
            }
            if not interp_tags:
                continue  # untagged interpreted protocol: nothing to match
            interp_names = {
                use.value: use.name for use in schema.handles + schema.sends
            }
            for use in facts.emits:
                if use.value not in interp_tags:
                    findings.append(_finding(
                        self, use.path, use.node,
                        f"{kshort} emits tag {use.label()} that is outside "
                        f"{ishort}'s schema "
                        f"({sorted(interp_names.values())}); the "
                        "interpreted tier cannot reproduce this message",
                    ))
                    continue
                sent_arities = {
                    s.arity for s in schema.sends
                    if s.value == use.value and s.arity is not None
                }
                if (
                    use.arity is not None
                    and sent_arities
                    and use.arity not in sent_arities
                ):
                    findings.append(_finding(
                        self, use.path, use.node,
                        f"{kshort} emits tag {use.label()} with payload "
                        f"arity {use.arity}, but {ishort} sends it with "
                        f"arity {sorted(sent_arities)} — the tiers "
                        "diverge byte-for-byte on this message",
                    ))
            for use in facts.handles:
                if use.value not in interp_tags:
                    findings.append(_finding(
                        self, use.path, use.node,
                        f"{kshort} filters on tag {use.label()} that is "
                        f"outside {ishort}'s schema — the mask can never "
                        "match a message the interpreted tier sends",
                    ))
        return findings


register_rule(ProtoMsgRule)
register_rule(KernelEqRule)
