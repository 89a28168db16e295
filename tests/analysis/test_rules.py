"""Per-rule fixtures for ``repro lint``: one passing and one failing
snippet per rule.

Fixtures are embedded as strings (not files on disk) and analyzed through
:func:`repro.analysis.analyze_source` with *virtual* in-package paths —
``repro lint tests`` must exit clean on this repository, so deliberately
violating code cannot live in a real ``.py`` file.
"""

import pytest

from repro.analysis import analyze_source, available_rules, get_rule, module_path

SIM_PATH = "src/repro/congest/primitives/fixture.py"
APP_PATH = "src/repro/apps/fixture.py"


def _rules(source, path, select=None):
    return [f.rule for f in analyze_source(source, path, select=select)]


class TestRegistry:
    def test_available_rules_is_the_shipped_nine(self):
        assert available_rules() == (
            "DET-ORDER", "DET-RNG", "DET-WALL", "KERNEL-EQ",
            "PROTO-JOB", "PROTO-MSG", "PROTO-ROUND", "PROTO-STATE",
            "REG-BACKEND",
        )

    def test_unknown_rule_lists_registry(self):
        with pytest.raises(ValueError, match="registered rules: DET-ORDER"):
            get_rule("NOPE")

    def test_module_path_mapping(self):
        assert module_path("src/repro/congest/engine.py") == "congest/engine.py"
        assert module_path("/abs/src/repro/apps/sssp.py") == "apps/sssp.py"
        assert module_path("tests/congest/test_scheduler.py") is None
        assert module_path("benchmarks/bench_e16_runtime.py") is None


class TestDetRng:
    FAIL = (
        "import random\n"
        "def pick(ctx):\n"
        "    return random.randrange(ctx.num_nodes)\n"
    )
    PASS = (
        "def pick(ctx):\n"
        "    return ctx.rng.randrange(ctx.num_nodes)\n"
    )

    def test_fails_on_module_level_random(self):
        assert "DET-RNG" in _rules(self.FAIL, SIM_PATH)

    def test_fails_on_np_random(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert "DET-RNG" in _rules(source, SIM_PATH)

    def test_fails_on_from_import(self):
        source = "from random import randint\n"
        assert "DET-RNG" in _rules(source, SIM_PATH)

    def test_passes_on_ctx_rng(self):
        assert _rules(self.PASS, SIM_PATH) == []

    def test_annotation_is_not_a_draw(self):
        source = (
            "import random\n"
            "def f(rng: random.Random) -> random.Random:\n"
            "    return rng\n"
        )
        assert _rules(source, SIM_PATH) == []

    def test_out_of_scope_module_is_exempt(self):
        assert _rules(self.FAIL, "src/repro/graphs/fixture.py") == []
        assert _rules(self.FAIL, "tests/fixture.py") == []


class TestDetWall:
    FAIL = (
        "import time\n"
        "def stamp():\n"
        "    return time.monotonic()\n"
    )
    PASS = (
        "def stamp(ctx):\n"
        "    return ctx.round\n"
    )

    def test_fails_on_wall_clock(self):
        assert "DET-WALL" in _rules(self.FAIL, SIM_PATH)

    def test_fails_on_uuid_and_urandom(self):
        assert "DET-WALL" in _rules("import uuid\n", SIM_PATH)
        assert "DET-WALL" in _rules(
            "import os\nx = os.urandom(8)\n", SIM_PATH
        )
        assert "DET-WALL" in _rules("from time import monotonic\n", SIM_PATH)

    def test_passes_on_round_clock(self):
        # ctx.round is fine here: congest/primitives is PROTO-ROUND scope,
        # but this checks DET-WALL in isolation.
        assert _rules(self.PASS, SIM_PATH, select=("DET-WALL",)) == []

    def test_plain_os_import_is_fine(self):
        assert _rules("import os\nn = os.cpu_count()\n", SIM_PATH) == []


class TestDetOrder:
    FAIL = (
        "class PingNode(NodeAlgorithm):\n"
        "    def __init__(self):\n"
        "        self.pending = set()\n"
        "    def on_round(self, ctx, inbox):\n"
        "        return {v: (1,) for v in self.pending}\n"
    )
    PASS = (
        "class PingNode(NodeAlgorithm):\n"
        "    def __init__(self):\n"
        "        self.pending = set()\n"
        "    def on_round(self, ctx, inbox):\n"
        "        return {v: (1,) for v in sorted(self.pending)}\n"
    )

    def test_fails_on_raw_set_iteration(self):
        assert "DET-ORDER" in _rules(self.FAIL, SIM_PATH)

    def test_passes_when_sorted(self):
        assert _rules(self.PASS, SIM_PATH) == []

    def test_fails_on_for_loop_over_set_union(self):
        # One operand of the union is a tracked set: the whole BinOp is
        # set-typed, like `pending.keys() | latched` in the real worker.
        source = (
            "class Backend(SchedulerBackend):\n"
            "    def _loop(self, pending):\n"
            "        latched = set()\n"
            "        for v in pending | latched:\n"
            "            self.run(v)\n"
        )
        assert "DET-ORDER" in _rules(source, "src/repro/congest/fixture.py")

    def test_order_insensitive_reductions_are_exempt(self):
        source = (
            "class PingNode(NodeAlgorithm):\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def on_round(self, ctx, inbox):\n"
            "        if any(v > 3 for v in self.pending):\n"
            "            return {0: (sum(x for x in self.pending),)}\n"
            "        return {}\n"
        )
        assert _rules(source, SIM_PATH) == []

    def test_non_emitting_module_glue_is_exempt(self):
        source = (
            "def summarize(results):\n"
            "    marked = set(results)\n"
            "    return [v for v in marked]\n"
        )
        assert _rules(source, SIM_PATH) == []

    def test_fails_in_vector_kernel_scatter(self):
        # *Kernel classes are emission contexts: a scatter that orders
        # its emission array by set iteration is as hash-dependent as a
        # per-node send loop.
        source = (
            "class WaveVectorKernel(VectorKernel):\n"
            "    def scatter(self, ops, ready):\n"
            "        frontier = set(ready.tolist())\n"
            "        src = [v for v in frontier]\n"
            "        ops.emit(src, src, bits=1)\n"
        )
        assert "DET-ORDER" in _rules(
            source, "src/repro/congest/vectorized.py"
        )

    def test_kernel_sorted_and_array_iteration_pass(self):
        source = (
            "class WaveVectorKernel(VectorKernel):\n"
            "    def scatter(self, ops, ready):\n"
            "        frontier = set(ready.tolist())\n"
            "        src = sorted(frontier)\n"
            "        for v in ready.tolist():\n"
            "            pass\n"
            "        ops.emit(src, src, bits=1)\n"
        )
        assert _rules(source, "src/repro/congest/vectorized.py") == []


class TestProtoRound:
    FAIL = (
        "class LockstepNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        if ctx.round > 5:\n"
        "            return {}\n"
        "        return {0: (1,)}\n"
    )
    PASS = (
        "class AckNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        if inbox:\n"
        "            ctx.schedule_wake(1)\n"
        "        return {}\n"
    )

    def test_fails_on_round_read(self):
        assert "PROTO-ROUND" in _rules(self.FAIL, APP_PATH)

    def test_passes_ack_driven(self):
        assert _rules(self.PASS, APP_PATH) == []

    def test_keep_alive_sweep_is_whitelisted(self):
        source = (
            "class KeepAliveSweepNode(SweepNode):\n"
            "    def on_round(self, ctx, inbox):\n"
            "        return {} if ctx.round > self.last_round else {0: (1,)}\n"
        )
        assert _rules(source, "src/repro/core/distributed.py",
                      select=("PROTO-ROUND",)) == []

    def test_engine_modules_are_out_of_scope(self):
        # Backends *maintain* the counter; only algorithm code is banned
        # from reading it as wall time.
        source = "def tick(ctx):\n    return ctx.round + 1\n"
        assert _rules(source, "src/repro/congest/engine.py",
                      select=("PROTO-ROUND",)) == []


class TestRegBackend:
    FAIL = "from repro.congest.vectorized import VectorizedBackend\n"
    PASS = (
        "from repro.congest.engine import get_backend\n"
        "backend = get_backend('vectorized')()\n"
    )

    def test_fails_outside_congest(self):
        assert "REG-BACKEND" in _rules(self.FAIL, APP_PATH)
        assert "REG-BACKEND" in _rules(
            "from repro.congest.asynchronous import UniformLatency\n", APP_PATH
        )
        assert "REG-BACKEND" in _rules(
            "import repro.congest.asynchronous\n", APP_PATH
        )

    def test_registry_access_passes(self):
        assert _rules(self.PASS, APP_PATH) == []
        assert _rules(
            "from repro.congest.asynchronous import resolve_latency_model\n",
            APP_PATH,
        ) == []

    def test_inside_congest_is_exempt(self):
        assert _rules(self.FAIL, "src/repro/congest/network.py") == []

    def test_vectorized_backend_is_registry_guarded(self):
        assert "REG-BACKEND" in _rules(
            "from repro.congest.vectorized import VectorizedBackend\n",
            APP_PATH,
        )
        assert "REG-BACKEND" in _rules(
            "import repro.congest.vectorized\n", APP_PATH
        )

    def test_vector_kernel_import_passes(self):
        # Algorithms outside congest/ legitimately subclass VectorKernel
        # (e.g. the ack sweep's leaf kernel in core/distributed.py); only
        # the backend class itself stays behind the registry.
        assert _rules(
            "from repro.congest.vectorized import VectorKernel\n", APP_PATH
        ) == []


class TestProtoState:
    FAIL = (
        "class RewireNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        ctx.round = 0\n"
        "        self.graph.add_edge(1, 2)\n"
        "        return {}\n"
    )
    PASS = (
        "class LocalNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        self.seen = len(inbox)\n"
        "        self.table.update(inbox)\n"
        "        return {}\n"
    )

    def test_fails_on_ctx_write_and_graph_mutation(self):
        rules = _rules(self.FAIL, APP_PATH)
        assert rules.count("PROTO-STATE") == 2

    def test_local_state_passes(self):
        assert _rules(self.PASS, APP_PATH) == []

    def test_init_is_exempt(self):
        source = (
            "class SetupNode(NodeAlgorithm):\n"
            "    def __init__(self, graph):\n"
            "        self.graph = graph\n"
            "        self.degree = graph.degree\n"
        )
        assert _rules(source, APP_PATH) == []


class TestProtoJob:
    FAIL_READ = (
        "class SnoopNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        if self.fabric.job_id == 'other':\n"
        "            return {}\n"
        "        return {}\n"
    )
    FAIL_FORGE = (
        "class ForgeNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        self.fabric.job_id = 'victim'\n"
        "        return {}\n"
    )
    PASS = (
        "class ObliviousNode(NodeAlgorithm):\n"
        "    def on_round(self, ctx, inbox):\n"
        "        self.seen = len(inbox)\n"
        "        return {}\n"
    )

    def test_fails_on_tag_read(self):
        assert "PROTO-JOB" in _rules(self.FAIL_READ, APP_PATH)

    def test_fails_on_tag_forge(self):
        findings = [
            f for f in analyze_source(self.FAIL_FORGE, APP_PATH)
            if f.rule == "PROTO-JOB"
        ]
        assert len(findings) == 1
        assert "forges" in findings[0].message

    def test_init_is_not_exempt(self):
        # Unlike PROTO-STATE, construction code holding a tenancy tag is
        # already a leak — nodes must be oblivious to which tenant runs
        # them.
        source = (
            "class TaggedNode(NodeAlgorithm):\n"
            "    def __init__(self, fabric):\n"
            "        self.tag = fabric.job_id\n"
        )
        assert "PROTO-JOB" in _rules(source, APP_PATH)

    def test_oblivious_node_passes(self):
        assert _rules(self.PASS, APP_PATH) == []

    def test_non_node_classes_may_carry_tags(self):
        source = (
            "class Arbiter:\n"
            "    def route(self, fabric):\n"
            "        return fabric.job_id\n"
        )
        assert _rules(source, SIM_PATH) == []
