"""The rule registry and the CONGEST-specific rules behind ``repro lint``.

Every guarantee the simulator makes — byte-identical executions across the
``dense``/``event``/``vectorized`` backends, seed-replayable runs,
exact Theorem 3.1 marking under any latency model — rests on a handful of
coding invariants that no type checker sees: node code draws randomness
only from ``ctx.rng``, never reads ``ctx.round`` as wall time, never
iterates an unordered set into message-emission order, never mutates the
shared graph mid-run. Each rule here mechanizes one of those invariants as
an AST check.

Rules self-register at import time (:func:`register_rule`), mirroring the
scheduler-backend and shortcut-provider registries: an unknown rule name
fails with a message listing every registered rule, uniformly at every API
boundary (:func:`get_rule`, the CLI ``--select`` flag, suppression
comments).

Scope is derived from the file's path: the segment after the rightmost
``repro`` package directory is the *module path* (``congest/engine.py``,
``apps/sssp.py``, ...). Files outside the package — tests, benchmarks —
have no module path and are exempt from every rule (fixture snippets that
deliberately violate the rules live there as plain strings).

The checks are linters, not proofs: they are deliberately syntactic
(a set squirreled through an untracked alias, or randomness behind a
helper function, can escape them) and deliberately strict the other way
(an order-insensitive fold over a set is still flagged). False positives
are handled with the inline suppression syntax — ``# repro: allow[RULE]
reason`` — which :mod:`repro.analysis.engine` validates for unused entries
and missing justifications.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

__all__ = [
    "Finding",
    "Rule",
    "register_rule",
    "get_rule",
    "available_rules",
    "rule_table",
    "module_path",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, anchored to a source location (1-based line/col)."""

    path: str
    line: int
    col: int
    rule: str
    message: str


def module_path(path: str) -> str | None:
    """The path segment after the rightmost ``repro`` package directory.

    ``src/repro/congest/engine.py`` -> ``congest/engine.py``; paths with no
    ``repro`` directory (tests, benchmarks, scratch files) map to ``None``,
    which exempts them from every rule.
    """
    parts = [part for part in str(path).replace("\\", "/").split("/") if part]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            sub = "/".join(parts[i + 1 :])
            return sub or None
    return None


# ---------------------------------------------------------------------------
# Registry (the scheduler/provider registry idiom: register / get / list,
# unknown names fail with the full roster).

_RULES: dict[str, type["Rule"]] = {}


def register_rule(rule: type["Rule"], replace_existing: bool = False) -> None:
    """Register a rule class under ``rule.name``.

    Raises:
        ValueError: when the name is taken and ``replace_existing`` is
            False.
    """
    if rule.name in _RULES and not replace_existing:
        raise ValueError(f"lint rule {rule.name!r} is already registered")
    _RULES[rule.name] = rule


def get_rule(name: str) -> type["Rule"]:
    """Look up a registered rule class by name.

    Raises:
        ValueError: unknown name (the message lists the registry, matching
            the scheduler/provider error convention).
    """
    try:
        return _RULES[name]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {name!r}; registered rules: "
            f"{', '.join(available_rules())}"
        ) from None


def available_rules() -> tuple[str, ...]:
    """Sorted names of all registered rules."""
    return tuple(sorted(_RULES))


def rule_table() -> list[tuple[str, str, str]]:
    """``(name, scope, summary)`` triples for every registered rule, sorted.

    ``scope`` is the human-readable module scope the rule runs in — what
    ``applies_to`` encodes in code — surfaced by ``repro registry`` so the
    roster shows *where* each rule bites, not just what it checks.
    """
    return [
        (name, _RULES[name].scope, _RULES[name].summary)
        for name in available_rules()
    ]


class Rule:
    """One static check over a parsed module.

    Subclasses set :attr:`name` (the ``REPRO-lint`` code used in output,
    ``--select``, and suppression comments) and :attr:`summary` (one line
    for ``--list-rules`` and the README table), restrict themselves to the
    relevant part of the tree via :meth:`applies_to`, and emit
    :class:`Finding` objects from :meth:`check`.

    Project awareness is opt-in on two axes:

    * :meth:`check_project` is called instead of :meth:`check` under
      ``repro lint --project``, with the whole-program
      :class:`~repro.analysis.project.ProjectModel` as extra context. The
      default delegates to :meth:`check`, so a per-file rule behaves
      identically in both modes until it overrides the hook.
    * :attr:`project_only` marks rules (``PROTO-MSG``, ``KERNEL-EQ``) that
      are meaningless without the model; they expose :meth:`check_model`
      — one pass over the whole model — and are skipped entirely in
      per-file mode.
    """

    name = "abstract"
    summary = ""
    #: Human-readable module scope for the registry listing.
    scope = "repro package"
    #: True for rules that only run under ``--project`` (via
    #: :meth:`check_model`); they are skipped in per-file mode.
    project_only = False

    def applies_to(self, module: str | None) -> bool:
        """Whether this rule runs on a file with the given module path."""
        return module is not None

    def check(self, module: str, tree: ast.Module, path: str) -> list[Finding]:
        """Return every finding for one parsed file."""
        raise NotImplementedError

    def check_project(
        self, module: str, tree: ast.Module, path: str, model
    ) -> list[Finding]:
        """Per-file check with whole-program context (``--project`` mode).

        ``model`` is a :class:`~repro.analysis.project.ProjectModel` whose
        trees include this file's (same AST objects, so node identity can
        key into the model's resolved call sites). Default: the per-file
        :meth:`check`.
        """
        return self.check(module, tree, path)

    def check_model(self, model) -> list[Finding]:
        """Whole-program check, called once per ``--project`` run.

        Only :attr:`project_only` rules implement this; findings must be
        anchored in real scanned files so inline suppressions keep
        working.
        """
        return []


# ---------------------------------------------------------------------------
# Shared AST helpers.

# Modules whose code executes *inside* the simulator's round loop (node
# algorithms, backends, the fabric) — where the determinism rules bite.
_SIMULATOR_EXTRA = frozenset({"core/distributed.py", "sched/partwise.py"})


def _is_simulator_module(module: str) -> bool:
    return module.startswith("congest/") or module in _SIMULATOR_EXTRA


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(rule: "Rule", path: str, node: ast.AST, message: str) -> Finding:
    return Finding(path, node.lineno, node.col_offset + 1, rule.name, message)


# ---------------------------------------------------------------------------
# Cross-module taint plumbing shared by the project-mode overrides.
#
# In per-file mode DET-RNG/DET-WALL stop at the file boundary: a helper in
# ``apps/`` that calls ``random.random()`` is outside their scope, so a
# simulator file calling that helper launders the draw invisibly. With a
# ProjectModel the rules taint every function reaching a banned source
# (fixed point over the call graph) and flag the *call site* inside
# simulator code — but only when the callee lives in a module the rule
# does not already scan, so nothing is reported twice.

#: The sanctioned randomness helpers: calls into these modules are clean
#: by definition (they exist precisely to derive per-node deterministic
#: streams), so they absorb taint instead of propagating it.
_RNG_EXEMPT_MODULES = frozenset({"repro.util.rng"})


def _rng_source(model, info) -> str | None:
    """DET-RNG taint source: the function itself touches module-level RNG."""
    for callee, _ in info.calls:
        if callee and (callee == "random" or callee.startswith("random.")):
            return f"draws from {callee}()"
    for node in ast.walk(info.node):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted in ("np.random", "numpy.random"):
                return f"touches {dotted}"
    return None


def _wall_source(model, info) -> str | None:
    """DET-WALL taint source: wall clock / OS entropy inside the function."""
    for callee, _ in info.calls:
        if callee and (
            callee in _WALL_ATTRS
            or callee == "uuid"
            or callee.startswith("uuid.")
        ):
            return f"reads {callee}()"
    return None


def _laundered_call_findings(
    rule: "Rule", path: str, model, tainted: dict[str, str], hint: str
) -> list[Finding]:
    """Findings for call sites in ``path`` whose resolved callee is tainted
    and defined outside the rule's own scanning scope."""
    findings = []
    for info in model.functions.values():
        if info.path != str(path):
            continue
        for callee, call in info.calls:
            if callee not in tainted:
                continue
            target = model.functions.get(callee)
            if target is None:
                continue
            if rule.applies_to(module_path(target.path)):
                continue  # the per-file pass already covers the callee
            findings.append(_finding(
                rule, path, call,
                f"call to {callee}(), which {tainted[callee]} "
                f"(defined in {module_path(target.path)}, outside this "
                f"rule's per-file scope); {hint}",
            ))
    return findings


def _cached_taint(model, key: str, source, exempt=()) -> dict[str, str]:
    if key not in model.cache:
        model.cache[key] = model.tainted_functions(source, exempt)
    return model.cache[key]


# ---------------------------------------------------------------------------
# DET-RNG — no module-level randomness in simulator code.


class DetRngRule(Rule):
    """Ban ``random.*`` / ``np.random`` in simulator code.

    Per-node streams must come from ``ctx.rng`` (derived from
    ``(run_seed, node_index)``) or the :mod:`repro.util.rng` helpers; a
    module-level draw depends on global call order, which differs across
    scheduler backends. Type annotations
    (``rng: random.Random``) are attribute references, not calls, and are
    not flagged.
    """

    name = "DET-RNG"
    summary = (
        "module-level randomness (random.*, np.random) in simulator code; "
        "draw from ctx.rng or repro.util.rng instead"
    )
    scope = "simulator modules (congest/, core/distributed, sched/partwise)"

    def applies_to(self, module: str | None) -> bool:
        return module is not None and _is_simulator_module(module)

    def check_project(self, module, tree, path, model):
        tainted = _cached_taint(
            model, "taint/det-rng", _rng_source, _RNG_EXEMPT_MODULES
        )
        return self.check(module, tree, path) + _laundered_call_findings(
            self, path, model, tainted,
            "simulator code must use ctx.rng or the repro.util.rng helpers",
        )

    def check(self, module, tree, path):
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                findings.append(_finding(
                    self, path, node,
                    "importing names from the random module invites "
                    "call-order-dependent draws; use ctx.rng or the "
                    "repro.util.rng helpers",
                ))
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted and (dotted == "random" or dotted.startswith("random.")):
                    findings.append(_finding(
                        self, path, node,
                        f"call to {dotted}() draws from shared module-level "
                        "state; simulator code must use ctx.rng or the "
                        "repro.util.rng helpers",
                    ))
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted in ("np.random", "numpy.random"):
                    findings.append(_finding(
                        self, path, node,
                        f"{dotted} is shared global state; simulator code "
                        "must use ctx.rng or the repro.util.rng helpers",
                    ))
        return findings


# ---------------------------------------------------------------------------
# DET-WALL — no wall-clock or OS-entropy sources in simulator code.

_WALL_TIME_NAMES = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "sleep",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
})
_WALL_ATTRS = frozenset({"os.urandom"} | {f"time.{n}" for n in _WALL_TIME_NAMES})


class DetWallRule(Rule):
    """Ban wall-clock reads and OS entropy in simulator code.

    Rounds and virtual time are the only clocks a CONGEST execution may
    observe; ``time.*``, ``os.urandom``, and ``uuid`` make runs
    unreplayable and backend-dependent.
    """

    name = "DET-WALL"
    summary = (
        "wall-clock / OS-entropy source (time.*, os.urandom, uuid) in "
        "simulator code; rounds and ctx.rng are the only clocks and coins"
    )
    scope = "simulator modules (congest/, core/distributed, sched/partwise)"

    def applies_to(self, module: str | None) -> bool:
        return module is not None and _is_simulator_module(module)

    def check_project(self, module, tree, path, model):
        tainted = _cached_taint(model, "taint/det-wall", _wall_source)
        return self.check(module, tree, path) + _laundered_call_findings(
            self, path, model, tainted,
            "the round counter and ctx.rng are the only clocks and coins",
        )

    def check(self, module, tree, path):
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "uuid":
                    findings.append(_finding(
                        self, path, node,
                        "uuid draws OS entropy; simulator identifiers must "
                        "be derived from node ids and ctx.rng",
                    ))
                elif node.module == "time" and any(
                    alias.name in _WALL_TIME_NAMES for alias in node.names
                ):
                    findings.append(_finding(
                        self, path, node,
                        "importing wall-clock functions from time; the "
                        "round counter / virtual clock is the only time "
                        "simulator code may observe",
                    ))
                elif node.module == "os" and any(
                    alias.name == "urandom" for alias in node.names
                ):
                    findings.append(_finding(
                        self, path, node,
                        "os.urandom is OS entropy; use ctx.rng",
                    ))
            elif isinstance(node, ast.Import):
                if any(
                    alias.name == "uuid" or alias.name.startswith("uuid.")
                    for alias in node.names
                ):
                    findings.append(_finding(
                        self, path, node,
                        "uuid draws OS entropy; simulator identifiers must "
                        "be derived from node ids and ctx.rng",
                    ))
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted in _WALL_ATTRS or (dotted and dotted.startswith("uuid.")):
                    findings.append(_finding(
                        self, path, node,
                        f"{dotted} reads wall clock / OS entropy; the round "
                        "counter and ctx.rng are the only clocks and coins "
                        "in simulator code",
                    ))
        return findings


# ---------------------------------------------------------------------------
# DET-ORDER — no unordered set iteration on message-emitting paths.

_SET_ANNOTATION_RE = re.compile(r"\b(set|frozenset|Set|FrozenSet|AbstractSet|MutableSet)\b")
_ORDER_SAFE_REDUCTIONS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})
_EMISSION_BASE_SUFFIXES = ("NodeAlgorithm", "Backend", "Node", "Fabric", "Kernel")


def _annotation_is_set(annotation: ast.AST) -> bool:
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on valid trees
        return False
    return bool(_SET_ANNOTATION_RE.search(text))


def _collect_set_names(
    tree: ast.Module, set_call_ids: frozenset[int] = frozenset()
) -> set[str]:
    """Names/attribute chains assigned set-typed values, module-wide.

    Deliberately flow-insensitive: one set-typed assignment marks the name
    for the whole module (two passes give aliases like ``y = x`` a chance
    to propagate). Conservative in both directions — a name rebound to a
    sorted list later stays marked, and sets passed in as parameters are
    invisible; both are acceptable for a linter backed by suppressions.
    ``set_call_ids`` extends the syntactic judgment with project knowledge:
    AST ids of call nodes whose resolved callee returns a set.
    """
    names: set[str] = set()
    for _ in range(2):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                value, annotation, targets = node.value, None, node.targets
            elif isinstance(node, ast.AnnAssign):
                value, annotation, targets = node.value, node.annotation, (node.target,)
            elif isinstance(node, ast.AugAssign):
                value, annotation, targets = node.value, None, (node.target,)
            else:
                continue
            set_typed = (
                value is not None and _is_set_expr(value, names, set_call_ids)
            ) or (annotation is not None and _annotation_is_set(annotation))
            if not set_typed:
                continue
            for target in targets:
                dotted = _dotted(target)
                if dotted:
                    names.add(dotted)
    return names


def _is_set_expr(
    expr: ast.AST,
    set_names: set[str],
    set_call_ids: frozenset[int] = frozenset(),
) -> bool:
    """Whether ``expr`` syntactically evaluates to a set."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        if id(expr) in set_call_ids:
            return True
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_set_expr(func.value, set_names, set_call_ids)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(expr.left, set_names, set_call_ids) or _is_set_expr(
            expr.right, set_names, set_call_ids
        )
    dotted = _dotted(expr)
    return dotted is not None and dotted in set_names


def _set_returning_functions(model) -> frozenset[str]:
    """Qualnames of project functions that (transitively) return sets.

    A function qualifies when its return annotation is set-like, it
    returns a syntactic set expression, or it returns the result of a call
    into another qualifying function — computed to a fixed point so
    set-ness survives trivial forwarding wrappers.
    """
    returning: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qual, info in model.functions.items():
            if qual in returning:
                continue
            node = info.node
            annotation = getattr(node, "returns", None)
            qualifies = annotation is not None and _annotation_is_set(annotation)
            if not qualifies:
                resolved = {id(call): callee for callee, call in info.calls}
                for sub in ast.walk(node):
                    if not isinstance(sub, ast.Return) or sub.value is None:
                        continue
                    if _is_set_expr(sub.value, set()) or (
                        isinstance(sub.value, ast.Call)
                        and resolved.get(id(sub.value)) in returning
                    ):
                        qualifies = True
                        break
            if qualifies:
                returning.add(qual)
                changed = True
    return frozenset(returning)


def _emission_contexts(tree: ast.Module):
    """Top-level nodes whose bodies feed message emission or delivery.

    Classes deriving from ``*NodeAlgorithm`` / ``*Backend`` / ``*Node`` /
    ``*Fabric`` / ``*Kernel`` (plus the fabric itself). ``*Kernel`` covers
    the vectorized backend's columnar companions (``VectorKernel``
    subclasses), whose apply/scatter hooks emit whole message batches — a
    set iterated into an emission array is exactly as order-sensitive as a
    per-node send loop.
    Module-level glue that only post-processes results is out of scope —
    a set iterated into a *result* is checked by equality, not by
    emission order.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = [node.name] + [_dotted(base) or "" for base in node.bases]
            if any(
                name.split(".")[-1].endswith(_EMISSION_BASE_SUFFIXES)
                for name in names
            ):
                yield node


class DetOrderRule(Rule):
    """Flag raw set iteration inside message-emitting code.

    Set iteration order is hash-seed- and history-dependent; feeding it
    into sends (or inbox staging) breaks cross-backend byte equivalence.
    Iterations whose order cannot be observed are exempt: set
    comprehensions (set -> set) and generator expressions consumed directly
    by an order-insensitive reduction (``sorted``/``min``/``max``/``sum``/
    ``any``/``all``/``set``/``frozenset``).
    """

    name = "DET-ORDER"
    summary = (
        "unordered set iteration on a message-emitting simulator path; "
        "wrap the iterable in sorted(...)"
    )
    scope = "congest/ + core/distributed (message-emitting classes)"

    def applies_to(self, module: str | None) -> bool:
        return module is not None and (
            module.startswith("congest/") or module == "core/distributed.py"
        )

    def check(self, module, tree, path):
        return self._check_impl(tree, path, frozenset())

    def check_project(self, module, tree, path, model):
        """Project mode extends set-ness through the call graph: a call
        site whose resolved callee (transitively) returns a set is treated
        exactly like a ``set(...)`` literal, so ``for x in neighbours():``
        is flagged when ``neighbours`` builds a set in another module."""
        if "det-order/returning" not in model.cache:
            model.cache["det-order/returning"] = _set_returning_functions(model)
        returning = model.cache["det-order/returning"]
        set_call_ids = frozenset(
            id(call)
            for info in model.functions.values()
            if info.path == str(path)
            for callee, call in info.calls
            if callee in returning
        )
        return self._check_impl(tree, path, set_call_ids)

    def _check_impl(self, tree, path, set_call_ids):
        set_names = _collect_set_names(tree, set_call_ids)
        findings = []
        for context in _emission_contexts(tree):
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(context):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            for node in ast.walk(context):
                sites: list[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    sites.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.DictComp)):
                    sites.extend(gen.iter for gen in node.generators)
                elif isinstance(node, ast.GeneratorExp):
                    consumer = parents.get(node)
                    if (
                        isinstance(consumer, ast.Call)
                        and isinstance(consumer.func, ast.Name)
                        and consumer.func.id in _ORDER_SAFE_REDUCTIONS
                    ):
                        continue
                    sites.extend(gen.iter for gen in node.generators)
                for expr in sites:
                    if _is_set_expr(expr, set_names, set_call_ids):
                        if isinstance(expr, ast.Call):
                            source = (_dotted(expr.func) or "a call") + "()"
                        else:
                            source = _dotted(expr) or type(expr).__name__
                        findings.append(_finding(
                            self, path, expr,
                            f"iterating a set ({source}) on a "
                            "message-emitting path; set order is "
                            "hash-dependent — wrap it in sorted(...) so "
                            "emission order is deterministic",
                        ))
        return findings


# ---------------------------------------------------------------------------
# PROTO-ROUND — ctx.round must not be read as wall time.


class ProtoRoundRule(Rule):
    """Flag ``ctx.round`` reads in algorithm code.

    Reading the round counter as wall time was retired with the
    lockstep-calibrated sweep: a round count means different things under
    different latency models, so protocols must detect progress with acks
    or ``ctx.schedule_wake``. The retired-but-kept reference
    ``KeepAliveSweepNode`` is the single whitelisted reader; engine/backend
    modules (stats plumbing that *maintains* the counter) are out of
    scope.
    """

    name = "PROTO-ROUND"
    summary = (
        "ctx.round read as wall time in algorithm code (retired in the "
        "ack-driven redesign); use acks or ctx.schedule_wake"
    )
    scope = "algorithm modules (primitives/, apps/, sweep protocols)"

    _WHITELIST_CLASSES = frozenset({"KeepAliveSweepNode"})

    def applies_to(self, module: str | None) -> bool:
        if module is None:
            return False
        return (
            module.startswith("congest/primitives/")
            or module.startswith("apps/")
            or module in ("core/distributed.py", "sched/partwise.py")
        )

    def check(self, module, tree, path):
        exempt: set[ast.AST] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in self._WHITELIST_CLASSES:
                exempt.update(ast.walk(node))
        findings = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "round"
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("ctx", "node_ctx")
                and node not in exempt
            ):
                findings.append(_finding(
                    self, path, node,
                    "reading ctx.round as wall time couples the protocol to "
                    "the lockstep schedule; signal completion with acks or "
                    "ctx.schedule_wake (KeepAliveSweepNode is the only "
                    "whitelisted reader)",
                ))
        return findings


# ---------------------------------------------------------------------------
# REG-BACKEND — backend/latency classes stay behind the registry.

_BACKEND_MODULES = frozenset({
    "repro.congest.engine",
    "repro.congest.asynchronous",
    "repro.congest.vectorized",
})


class RegBackendRule(Rule):
    """Flag direct backend / latency-model class imports outside congest.

    Everything outside :mod:`repro.congest` selects backends by *name*
    through ``engine.get_backend`` / ``resolve_latency_model`` — the same
    boundary ruff's TID251 enforces for shortcut providers. A direct class
    import bypasses registration and validation, including the vectorized
    backend's registration as *unavailable* when numpy is missing.
    """

    name = "REG-BACKEND"
    summary = (
        "direct scheduler-backend / latency-model class import outside "
        "repro.congest; route through get_backend / resolve_latency_model"
    )
    scope = "everywhere outside congest/"

    def applies_to(self, module: str | None) -> bool:
        return module is not None and not module.startswith("congest/")

    def check(self, module, tree, path):
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module not in _BACKEND_MODULES:
                    continue
                for alias in node.names:
                    if (
                        alias.name.endswith(("Backend", "Latency"))
                        or alias.name == "LatencyModel"
                    ):
                        findings.append(_finding(
                            self, path, node,
                            f"direct import of {alias.name} from "
                            f"{node.module}; outside repro.congest, select "
                            "backends via engine.get_backend(name) and "
                            "latency models via resolve_latency_model",
                        ))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("repro.congest.asynchronous",
                                      "repro.congest.vectorized"):
                        findings.append(_finding(
                            self, path, node,
                            f"importing {alias.name} outside repro.congest; "
                            "the registries (engine.get_backend, "
                            "resolve_latency_model) are the supported way in",
                        ))
        return findings


# ---------------------------------------------------------------------------
# PROTO-STATE — node algorithms must not mutate shared state.

_GRAPH_MUTATORS = frozenset({
    "add_edge", "add_edges_from", "add_weighted_edges_from",
    "add_node", "add_nodes_from",
    "remove_edge", "remove_edges_from", "remove_node", "remove_nodes_from",
    "clear", "clear_edges", "update",
})
_SHARED_ROOTS = frozenset({
    "graph", "net", "network", "fabric",
    "self.graph", "self.net", "self.network", "self.fabric",
})


def _mutating_functions(model) -> dict[str, str]:
    """Project functions that call a graph mutator on one of their own
    parameters — ``qualname -> mutator method name``. Used by the
    PROTO-STATE project override to catch mutation hidden behind a helper
    (node method passes the shared graph, helper calls ``add_edge``)."""
    mutating: dict[str, str] = {}
    for qual, info in model.functions.items():
        node = info.node
        args = node.args
        params = {
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }
        params.discard("self")
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _GRAPH_MUTATORS
            ):
                root = _dotted(sub.func.value)
                if root and root.split(".")[0] in params:
                    mutating[qual] = sub.func.attr
                    break
    return mutating


class ProtoStateRule(Rule):
    """Flag shared-state mutation from node-algorithm methods.

    A node may only touch its own attributes and its outbox. Writing
    ``ctx.*`` corrupts the engine's bookkeeping; mutating the shared graph
    or fabric mid-run changes the topology under the other nodes' feet, and
    differently on each backend, since they activate nodes in different
    orders and rounds.
    ``__init__`` is exempt: construction runs centrally, before round 0.
    """

    name = "PROTO-STATE"
    summary = (
        "node algorithm mutates engine context (ctx.*) or the shared "
        "graph/fabric from round code"
    )
    scope = "simulator + apps modules (NodeAlgorithm classes)"

    def applies_to(self, module: str | None) -> bool:
        return module is not None and (
            _is_simulator_module(module) or module.startswith("apps/")
        )

    def check_project(self, module, tree, path, model):
        """Project mode also catches mutation-by-proxy: a round method
        passing the shared graph/fabric to a project function that calls
        a graph mutator on its parameter."""
        if "proto-state/mutators" not in model.cache:
            model.cache["proto-state/mutators"] = _mutating_functions(model)
        mutators = model.cache["proto-state/mutators"]
        findings = self.check(module, tree, path)
        for info in model.functions.values():
            if info.path != str(path) or info.owner is None:
                continue
            owner = model.classes.get(info.owner)
            if owner is None or info.node.name == "__init__":
                continue
            class_names = [owner.qualname.rsplit(".", 1)[-1]] + list(owner.bases)
            if not any(
                name.split(".")[-1].endswith(("NodeAlgorithm", "Node"))
                for name in class_names
            ):
                continue
            for callee, call in info.calls:
                mutator = mutators.get(callee)
                if mutator is None:
                    continue
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    root = _dotted(arg)
                    if root and (
                        root in _SHARED_ROOTS
                        or any(root.startswith(r + ".") for r in _SHARED_ROOTS)
                        or root.startswith(("ctx.", "node_ctx."))
                    ):
                        findings.append(_finding(
                            self, path, call,
                            f"passes shared state {root} to {callee}(), "
                            f"which mutates its argument via .{mutator}(); "
                            "node algorithms own only their local "
                            "attributes and their outbox",
                        ))
        return findings

    def check(self, module, tree, path):
        findings = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [_dotted(base) or "" for base in cls.bases]
            if not any(
                name.split(".")[-1].endswith(("NodeAlgorithm", "Node"))
                for name in names
            ):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    continue
                findings.extend(self._scan_method(item, path))
        return findings

    def _scan_method(self, method: ast.AST, path: str) -> list[Finding]:
        findings = []
        for node in ast.walk(method):
            targets: tuple[ast.AST, ...] = ()
            if isinstance(node, ast.Assign):
                targets = tuple(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            elif isinstance(node, ast.Delete):
                targets = tuple(node.targets)
            for target in targets:
                dotted = _dotted(target)
                if dotted and dotted.startswith(("ctx.", "node_ctx.")):
                    findings.append(_finding(
                        self, path, node,
                        f"writes engine context attribute {dotted}; "
                        "NodeContext is read-only for node code (the "
                        "wake-up controls are keep_alive()/schedule_wake())",
                    ))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in _GRAPH_MUTATORS:
                    continue
                root = _dotted(node.func.value)
                if root and (
                    root in _SHARED_ROOTS
                    or any(root.startswith(r + ".") for r in _SHARED_ROOTS)
                ):
                    findings.append(_finding(
                        self, path, node,
                        f"mutates shared state via {root}."
                        f"{node.func.attr}(); node algorithms own only "
                        "their local attributes and their outbox",
                    ))
        return findings


# ---------------------------------------------------------------------------
# PROTO-JOB — node algorithms must not read or forge tenancy tags.


class ProtoJobRule(Rule):
    """Flag node-algorithm code touching ``job_id`` tenancy tags.

    The multi-tenant job layer (:mod:`repro.congest.jobs`) tags every
    fabric with the job it belongs to so messages demultiplex per tenant.
    That tag is *protocol* state: node code reading it would make an
    algorithm behave differently under the job layer than in a direct
    run (breaking the solo byte-identity contract), and writing it would
    forge another tenant's identity — cross-job isolation is exactly as
    strong as nobody touching the tag. Same enforcement pattern as
    ``PROTO-STATE``: every attribute access spelled ``*.job_id`` inside a
    ``NodeAlgorithm`` subclass method (``__init__`` included — a node has
    no business holding a tenancy tag at all) is flagged.
    """

    name = "PROTO-JOB"
    summary = (
        "node algorithm reads or forges a job_id tenancy tag; tags belong "
        "to the fabric/arbiter layer only"
    )
    scope = "simulator + apps modules (NodeAlgorithm classes)"

    def applies_to(self, module: str | None) -> bool:
        return module is not None and (
            _is_simulator_module(module) or module.startswith("apps/")
        )

    def check(self, module, tree, path):
        findings = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [_dotted(base) or "" for base in cls.bases]
            if not any(
                name.split(".")[-1].endswith(("NodeAlgorithm", "Node"))
                for name in names
            ):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                findings.extend(self._scan_method(item, path))
        return findings

    def _scan_method(self, method: ast.AST, path: str) -> list[Finding]:
        findings = []
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and node.attr == "job_id":
                dotted = _dotted(node)
                spelled = dotted if dotted is not None else f"....{node.attr}"
                verb = (
                    "forges" if isinstance(node.ctx, (ast.Store, ast.Del))
                    else "reads"
                )
                findings.append(_finding(
                    self, path, node,
                    f"{verb} tenancy tag {spelled}; job_id belongs to the "
                    "fabric/arbiter layer — node code must be oblivious to "
                    "which tenant it runs as",
                ))
        return findings


register_rule(DetRngRule)
register_rule(DetWallRule)
register_rule(DetOrderRule)
register_rule(ProtoRoundRule)
register_rule(RegBackendRule)
register_rule(ProtoStateRule)
register_rule(ProtoJobRule)
