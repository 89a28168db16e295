"""PROTO-MSG / KERNEL-EQ tests: cross-module message-schema conformance.

The central fixture splits one protocol across four virtual files — tag
constants in ``wire.py``, the interpreted class in ``fixnode.py``, the
``VectorKernel`` companion (linked module-level, from *its own* module)
in ``vectorized_fix.py``, and an RNG-laundering helper in ``apps`` — and
plants one violation of each kind. Per-file mode must find nothing in any
of these files; ``--project`` mode must find all of them.
"""

from repro.analysis import analyze_source, analyze_sources, get_rule

WIRE = "src/repro/congest/primitives/wire.py"
NODE = "src/repro/congest/primitives/fixnode.py"
KERNEL = "src/repro/congest/vectorized_fix.py"
HELPERS = "src/repro/apps/helpers.py"

FIXTURE = {
    WIRE: "PING = 0\nPONG = 1\nNACK = 7\n",
    HELPERS: (
        "import random\n"
        "\n"
        "\n"
        "def jitter():\n"
        "    return random.random()\n"
    ),
    NODE: (
        "from repro.apps.helpers import jitter\n"
        "from repro.congest.primitives.wire import PING, PONG\n"
        "\n"
        "\n"
        "class FixNode(NodeAlgorithm):\n"
        "    def on_start(self, ctx):\n"
        "        return {n: (PING, jitter()) for n in ctx.neighbors}\n"
        "\n"
        "    def on_round(self, ctx, inbox):\n"
        "        for sender, payload in inbox.items():\n"
        "            if payload[0] == PONG:\n"
        "                self.seen = sender\n"
        "        return {}\n"
    ),
    KERNEL: (
        "from repro.congest.primitives.fixnode import FixNode\n"
        "from repro.congest.primitives.wire import NACK\n"
        "\n"
        "\n"
        "class FixKernel(VectorKernel):\n"
        "    dtypes = {\"seen\": \"i64\", \"ghost\": \"f64\"}\n"
        "\n"
        "    def step(self, ops, inbox):\n"
        "        cols = ops.columns(self.dtypes)\n"
        "        cols[\"seen\"][:] = 0\n"
        "        cols[\"phantom\"][:] = 1\n"
        "        ops.emit(0, 1, tag=NACK)\n"
        "\n"
        "\n"
        "FixNode.vector_kernel = FixKernel\n"
    ),
}


def _messages(sources, select=None):
    return [(f.rule, f.path, f.message) for f in analyze_sources(sources, select)]


class TestRuleSurface:
    def test_both_rules_are_project_only(self):
        for name in ("PROTO-MSG", "KERNEL-EQ"):
            rule = get_rule(name)()
            assert rule.project_only
            assert "--project" in rule.scope
            # The per-file hook is inert by contract.
            assert rule.check("congest/x.py", None, "p") == []

    def test_per_file_mode_misses_every_planted_violation(self):
        for path, text in FIXTURE.items():
            assert analyze_source(text, path) == []


class TestCrossModuleFixture:
    def test_project_mode_finds_all_planted_violations(self):
        rules = sorted(f.rule for f in analyze_sources(FIXTURE))
        assert rules == [
            "DET-RNG", "KERNEL-EQ", "KERNEL-EQ", "KERNEL-EQ",
            "PROTO-MSG", "PROTO-MSG",
        ]

    def test_sent_but_never_handled_anchors_at_the_send(self):
        findings = [
            f for f in analyze_sources(FIXTURE, select=("PROTO-MSG",))
            if "sends tag PING (= 0)" in f.message
        ]
        assert len(findings) == 1
        assert findings[0].path == NODE
        assert "no handler" in findings[0].message
        assert "silently dropped" in findings[0].message

    def test_handled_but_never_sent_anchors_at_the_compare(self):
        findings = [
            f for f in analyze_sources(FIXTURE, select=("PROTO-MSG",))
            if "handles tag PONG (= 1)" in f.message
        ]
        assert len(findings) == 1
        assert findings[0].path == NODE
        assert "nothing" in findings[0].message

    def test_kernel_eq_dtypes_vs_materialized_columns(self):
        messages = [
            f.message for f in analyze_sources(FIXTURE, select=("KERNEL-EQ",))
        ]
        assert any(
            "materializes column 'phantom'" in m and "does not name" in m
            for m in messages
        )
        assert any(
            "declares dtype 'ghost' but never materializes" in m
            for m in messages
        )

    def test_kernel_eq_emitted_tag_outside_schema(self):
        messages = [
            f.message for f in analyze_sources(FIXTURE, select=("KERNEL-EQ",))
        ]
        assert any(
            "emits tag NACK (= 7)" in m
            and "outside FixNode's schema (['PING', 'PONG'])" in m
            for m in messages
        )

    def test_inline_suppression_silences_a_project_finding(self):
        sources = dict(FIXTURE)
        sources[NODE] = sources[NODE].replace(
            "        return {n: (PING, jitter()) for n in ctx.neighbors}\n",
            "        return {n: (PING, jitter()) for n in ctx.neighbors}"
            "  # repro: allow[PROTO-MSG,DET-RNG] fixture exercises both\n",
        )
        rules = sorted(f.rule for f in analyze_sources(sources))
        assert rules == ["KERNEL-EQ", "KERNEL-EQ", "KERNEL-EQ", "PROTO-MSG"]


class TestProtoMsgEdges:
    def test_catch_all_else_arm_accepts_unnamed_tags(self):
        sources = {
            WIRE: FIXTURE[WIRE],
            NODE: (
                "from repro.congest.primitives.wire import PING\n"
                "\n"
                "\n"
                "class CatchNode(NodeAlgorithm):\n"
                "    def on_round(self, ctx, inbox):\n"
                "        for sender, payload in inbox.items():\n"
                "            tag = payload[0]\n"
                "            if tag == PING:\n"
                "                self.a = payload[1]\n"
                "            else:\n"
                "                self.b = tag\n"
                "        return {n: (PING, 1) for n in ctx.neighbors}\n"
            ),
        }
        assert _messages(sources, select=("PROTO-MSG",)) == []

    GUARD_NODE = (
        "ITEM = 0\n"
        "FIN = 1\n"
        "ACK = 2\n"
        "\n"
        "\n"
        "class GuardNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        for sender, payload in inbox.items():\n"
        "            tag = payload[0]\n"
        "            if tag == ACK:\n"
        "                self.pending.discard(sender)\n"
        "                continue\n"
        "            if tag == FIN:\n"
        "                self.pending.discard(sender)\n"
        "ACCESS"
        "        if self.pending:\n"
        "            return {self.parent: (ITEM, 3)}\n"
        "        return {self.parent: (FIN, 3), 0: (ACK,)}\n"
    )

    def test_unguarded_access_after_named_guards_accepts_unnamed_tags(self):
        # ACK `continue`s, FIN falls through, and the unguarded
        # ``payload[1]`` then consumes ITEM, which no guard names.
        access = "            self.known.append(payload[1])\n"
        sources = {"src/repro/congest/guard.py": self.GUARD_NODE.replace("ACCESS", access)}
        assert _messages(sources, select=("PROTO-MSG",)) == []

    def test_named_guards_alone_leave_the_unnamed_tag_unhandled(self):
        sources = {"src/repro/congest/guard.py": self.GUARD_NODE.replace("ACCESS", "")}
        findings = analyze_sources(sources, select=("PROTO-MSG",))
        assert len(findings) == 1
        assert "ITEM" in findings[0].message

    def test_conflicting_send_arities(self):
        sources = {
            "src/repro/congest/arity.py": (
                "T = 4\n"
                "\n"
                "\n"
                "class ArityNode(NodeAlgorithm):\n"
                "    def on_round(self, ctx, inbox):\n"
                "        out = {}\n"
                "        for n in sorted(ctx.neighbors):\n"
                "            out[n] = (T, 1)\n"
                "        out[0] = (T, 1, 2)\n"
                "        for s, payload in inbox.items():\n"
                "            if payload[0] == T:\n"
                "                self.x = payload[1]\n"
                "        return out\n"
            ),
        }
        findings = analyze_sources(sources, select=("PROTO-MSG",))
        assert len(findings) == 1
        assert "conflicting payload arities [2, 3]" in findings[0].message

    def test_handler_access_beyond_every_sent_arity(self):
        sources = {
            "src/repro/congest/deep.py": (
                "U = 9\n"
                "\n"
                "\n"
                "class DeepNode(NodeAlgorithm):\n"
                "    def on_round(self, ctx, inbox):\n"
                "        for s, payload in inbox.items():\n"
                "            if payload[0] == U:\n"
                "                self.x = payload[2]\n"
                "        return {n: (U, 1) for n in ctx.neighbors}\n"
            ),
        }
        findings = analyze_sources(sources, select=("PROTO-MSG",))
        assert len(findings) == 1
        message = findings[0].message
        assert "reads payload[2] for tag U (= 9)" in message
        assert "arity 2" in message
        assert "IndexError" in message

    def test_untagged_protocols_have_no_schema(self):
        sources = {
            "src/repro/congest/plain.py": (
                "class PlainNode(NodeAlgorithm):\n"
                "    def on_round(self, ctx, inbox):\n"
                "        for s, payload in inbox.items():\n"
                "            self.best = payload\n"
                "        return {n: self.best for n in ctx.neighbors}\n"
            ),
        }
        assert _messages(sources, select=("PROTO-MSG", "KERNEL-EQ")) == []


class TestKernelEqEdges:
    PAIR = {
        "src/repro/congest/primitives/pairwire.py": "FIN = 5\n",
        "src/repro/congest/primitives/pairnode.py": (
            "from repro.congest.primitives.pairwire import FIN\n"
            "\n"
            "\n"
            "class PairNode(NodeAlgorithm):\n"
            "    def on_round(self, ctx, inbox):\n"
            "        for s, payload in inbox.items():\n"
            "            if payload[0] == FIN:\n"
            "                self.done = payload[1]\n"
            "        return {n: (FIN, 1) for n in ctx.neighbors}\n"
        ),
    }

    def _kernel(self, materializer_body):
        return (
            "from repro.congest.primitives.pairnode import PairNode\n"
            "from repro.congest.primitives.pairwire import FIN\n"
            "\n"
            "\n"
            "def _materialize_fin(row):\n"
            f"    return {materializer_body}\n"
            "\n"
            "\n"
            "class PairKernel(VectorKernel):\n"
            "    dtypes = {\"done\": \"i64\"}\n"
            "\n"
            "    def step(self, ops, inbox):\n"
            "        cols = ops.columns(self.dtypes)\n"
            "        cols[\"done\"][:] = 0\n"
            "        ops.emit(0, 1, tag=FIN, materialize=_materialize_fin)\n"
            "\n"
            "\n"
            "PairNode.vector_kernel = PairKernel\n"
        )

    def test_materializer_arity_mismatch(self):
        sources = dict(self.PAIR)
        sources["src/repro/congest/pairkernel.py"] = self._kernel(
            "(FIN, row, row)"
        )
        findings = analyze_sources(sources, select=("KERNEL-EQ",))
        assert len(findings) == 1
        message = findings[0].message
        assert "emits tag FIN (= 5) with payload arity 3" in message
        assert "PairNode sends it with arity [2]" in message

    def test_matching_companion_is_clean(self):
        sources = dict(self.PAIR)
        sources["src/repro/congest/pairkernel.py"] = self._kernel("(FIN, row)")
        assert _messages(sources, select=("KERNEL-EQ", "PROTO-MSG")) == []

    def test_kernel_filter_on_foreign_tag(self):
        sources = dict(self.PAIR)
        sources["src/repro/congest/pairkernel.py"] = (
            "from repro.congest.primitives.pairnode import PairNode\n"
            "from repro.congest.primitives.pairwire import FIN\n"
            "\n"
            "GHOST = 12\n"
            "\n"
            "\n"
            "class PairKernel(VectorKernel):\n"
            "    def step(self, ops, inbox):\n"
            "        mask = inbox.tag == GHOST\n"
            "        ops.emit(0, 1, payload=(FIN, mask))\n"
            "\n"
            "\n"
            "PairNode.vector_kernel = PairKernel\n"
        )
        findings = analyze_sources(sources, select=("KERNEL-EQ",))
        assert len(findings) == 1
        message = findings[0].message
        assert "filters on tag GHOST (= 12)" in message
        assert "can never match" in message


class TestMixedTagEmits:
    """``emit(tag=np.where(mask, A, B), materialize=fn)``: one batch that
    carries two tags, each checked against the interpreted schema with the
    arity ``fn`` returns for it."""

    WIRE = "src/repro/congest/primitives/duowire.py"
    NODE = "src/repro/congest/primitives/duonode.py"
    KERNEL = "src/repro/congest/primitives/duokernel.py"

    SOURCES = {
        WIRE: "ADV = 0\nJOIN = 1\nGHOST = 12\n",
        NODE: (
            "from repro.congest.primitives.duowire import ADV, JOIN\n"
            "\n"
            "\n"
            "class DuoNode(NodeAlgorithm):\n"
            "    def on_round(self, ctx, inbox):\n"
            "        for s, payload in inbox.items():\n"
            "            if payload[0] == ADV:\n"
            "                self.depth = payload[1]\n"
            "            elif payload[0] == JOIN:\n"
            "                self.child = s\n"
            "        return {ctx.neighbors[0]: (JOIN,), ctx.neighbors[1]: (ADV, 1)}\n"
        ),
    }

    def _kernel(self, second_tag, join_return):
        return (
            "from repro.congest.primitives.duonode import DuoNode\n"
            f"from repro.congest.primitives.duowire import ADV, JOIN, {second_tag}\n"
            "\n"
            "\n"
            "def _materialize(tag, value):\n"
            "    if tag == JOIN:\n"
            f"        return {join_return}\n"
            "    return (ADV, value)\n"
            "\n"
            "\n"
            "class DuoKernel(VectorKernel):\n"
            "    def scatter(self, ops, ready):\n"
            "        join = ready == 0\n"
            f"        ops.emit(0, 1, tag=np.where(join, {second_tag}, ADV),\n"
            "                 materialize=_materialize)\n"
            "\n"
            "\n"
            "DuoNode.vector_kernel = DuoKernel\n"
        )

    def _findings(self, second_tag, join_return):
        sources = dict(self.SOURCES)
        sources[self.KERNEL] = self._kernel(second_tag, join_return)
        return analyze_sources(sources, select=("KERNEL-EQ", "PROTO-MSG"))

    def test_matching_mixed_batch_is_clean(self):
        assert self._findings("JOIN", "(JOIN,)") == []

    def test_each_branch_gets_its_own_arity(self):
        messages = [f.message for f in self._findings("JOIN", "(JOIN, value)")]
        assert any("emits tag JOIN (= 1) with payload arity 2" in m for m in messages)
        assert not any("ADV" in m for m in messages)

    def test_foreign_tag_in_a_branch(self):
        findings = self._findings("GHOST", "(GHOST,)")
        assert len(findings) == 1
        assert "GHOST (= 12)" in findings[0].message
