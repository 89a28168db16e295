"""The vectorized columnar scheduler backend: rounds as array kernels.

Every other backend interprets node activations one Python call at a time,
so wall clock on 10^5-10^6-node graphs is dominated by interpreter
overhead rather than the round/congestion costs the paper actually
bounds. This backend executes a whole round as three array passes over a
cached CSR adjacency (:func:`repro.graphs.adjacency.graph_csr`):

* **gather** — staged message batches are concatenated and lex-sorted by
  ``(receiver index, sender index)``, reproducing exactly the
  sender-index inbox order the interpreted backends stage;
* **apply** — the algorithm's :class:`VectorKernel` advances its columnar
  node state for every receiver at once;
* **scatter** — the kernel emits next-round messages as flat ``(src,
  dst)`` index arrays; adjacency validation, the bandwidth budget, and
  every :class:`~repro.congest.stats.RoundStats` counter (messages, bits,
  ``messages_by_round``, per-edge congestion) are computed by array
  reductions over the same batches.

The apply/scatter split follows the FPGA graph-engine shape (an
algorithm is a small apply/scatter kernel pair plugged into a generic
engine) that the ``NodeAlgorithm``/``SchedulerBackend`` registry already
mirrors — see ROADMAP.md.

Kernel contract
---------------

An algorithm opts in by pointing its class attribute
``NodeAlgorithm.vector_kernel`` at a :class:`VectorKernel` subclass. The
kernel declares its state columns (:attr:`VectorKernel.dtypes`), builds
them in :meth:`~VectorKernel.setup` from the already-constructed
per-node instances, emits round-0 messages in
:meth:`~VectorKernel.on_start`, advances state in
:meth:`~VectorKernel.apply` (called with a :class:`VectorInbox` of this
round's deliveries), emits in :meth:`~VectorKernel.scatter`, and
reports per-node results in :meth:`~VectorKernel.fill_results`. One
kernel runs one execution and owns every node of it.

Fallback policy
---------------

The backend runs a single-class population whose class has a kernel
that accepts the instance. Anything else is delegated to the ``event``
backend: a population that mixes algorithm classes, a class with no
kernel (``vector_kernel is None``), or a kernel that refuses the
instance (:meth:`VectorKernel.accepts` — e.g. BFS on non-integer node
labels). Delegation is legal because backends are observably identical
by contract, and it is recorded as a provenance note in ``stats.notes``.
``scheduler=`` threading through primitives, apps, and the CLI therefore
keeps working unchanged; ``sanitize=`` is a documented no-op here (the round loop never
produces the spurious wakes the sanitizer checks).

Determinism and byte-identity
-----------------------------

Per-node RNG streams remain derived from ``(run_seed, node_index)``
(:meth:`VectorFabric.node_rng`); CSR rows are sorted by neighbor index
so gathers reproduce sender-index inbox order; kernel receivers count
one activation per round exactly like event-backend wakes; timeouts and
quiescence replicate the event loop (a kernel has no timers, so a run
ends on the first round with nothing staged). The backend equivalence suite
(``tests/congest/test_scheduler.py``) enforces identical results and
stats against every registered backend for every tested seed.

Requires numpy (the ``repro[vectorized]`` extra). Without it this module
still imports and registers the name as *unavailable*, so
``get_backend("vectorized")`` fails with the install hint instead of an
unknown-scheduler error.
"""

from __future__ import annotations

from repro.congest.engine import (
    SchedulerBackend,
    get_backend,
    register_backend,
    register_unavailable_backend,
    timeout,
)
from repro.congest.stats import RoundStats
from repro.util.errors import CongestViolation
from repro.util.rng import derive_node_rng

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the registry stub
    np = None

__all__ = [
    "VectorizedBackend",
    "VectorKernel",
    "VectorInbox",
    "VectorFabric",
    "NUMPY_HINT",
]

NUMPY_HINT = (
    "the vectorized backend stores node state in numpy arrays; "
    "install the extra with `pip install 'repro[vectorized]'`"
)

# Sentinel distinguishing "no shared payload" from a shared payload of None.
_NO_PAYLOAD = object()


class VectorKernel:
    """Columnar companion of a :class:`~repro.congest.node.NodeAlgorithm`.

    One kernel instance executes *every* node of a run; per-node state
    lives in arrays indexed by node index (the graph's node order), not in
    the per-node instances. Subclasses override the hooks below; every
    hook receives the run's :class:`VectorFabric` (``ops``) for emission,
    CSR expansion, bit accounting, and RNG derivation.

    The engine drives a round as: deliveries are gathered into a
    :class:`VectorInbox` (sorted by receiver then sender index), then
    ``ready = kernel.apply(ops, inbox)`` advances state, then
    ``kernel.scatter(ops, ready)`` emits — the apply/scatter kernel split
    of the FPGA graph engines. Kernels are message-driven: there is no
    keep-alive or timer surface on the columnar path (algorithms needing
    one declare no kernel and run on ``event``).

    The contract a kernel signs up for: reproduce the interpreted
    messaging **bit-for-bit** — same messages, same per-message bit
    costs, same per-edge congestion counters — because the cross-backend
    equivalence suite compares full ``RoundStats``, not just results.
    ``BfsVectorKernel`` (``repro/congest/primitives/bfs.py``) is the
    smallest shipped example; the skeleton is sketched in
    ``docs/extending.md``. Populations a kernel cannot express delegate
    transparently to the ``event`` backend with a provenance note in
    ``RoundStats.notes``.
    """

    #: State columns the kernel allocates, ``name -> numpy dtype`` —
    #: documentation of the columnar layout, and the argument
    #: :meth:`VectorFabric.columns` materializes zeroed arrays from.
    dtypes: dict[str, str] = {}

    @classmethod
    def accepts(cls, csr, algorithms) -> bool:
        """Whether this kernel can execute these instances columnar.

        Refusing (e.g. BFS without integer node ids to order advertisers
        by) delegates the run to the event backend.
        """
        return True

    def setup(self, ops, algorithms) -> None:
        """Build state columns from the per-node instances (once per run)."""

    def on_start(self, ops) -> None:
        """Round-0 emission (``NodeAlgorithm.on_start`` for every node)."""

    def apply(self, ops, inbox):
        """Advance state for this round's receivers; return the ready set.

        The return value (an index array, or ``None``) is handed to
        :meth:`scatter` when non-empty.
        """
        return None

    def scatter(self, ops, ready) -> None:
        """Emit messages for the nodes :meth:`apply` marked ready."""

    def fill_results(self, ops, results: dict) -> None:
        """Write ``results[node_id]`` for every node."""


class VectorInbox:
    """One round of deliveries, columnar.

    All arrays are parallel and lex-sorted by ``(dst, src)`` — the same
    receiver-then-sender-index order interpreted inboxes materialize in.
    ``tag``/``value`` carry the emitting kernel's own schema (zeros where
    a batch had none); ``objs`` is an object array of Python payloads, or
    ``None`` when no batch carried any. ``receivers`` are the unique
    destinations, with ``starts``/``counts`` delimiting each receiver's
    segment for ``reduceat``-style grouping.
    """

    __slots__ = ("src", "dst", "tag", "value", "objs", "receivers", "starts", "counts")

    def __init__(self, src, dst, tag, value, objs):
        order = np.lexsort((src, dst))
        dst = dst[order]
        self.src = src[order]
        self.dst = dst
        self.tag = tag[order]
        self.value = value[order]
        self.objs = objs[order] if objs is not None else None
        # Group boundaries on the already-sorted dst — np.unique would
        # sort a second time.
        size = dst.size
        heads = np.empty(size, dtype=bool)
        heads[0] = True
        np.not_equal(dst[1:], dst[:-1], out=heads[1:])
        starts = np.flatnonzero(heads)
        self.receivers = dst[starts]
        self.starts = starts
        self.counts = np.diff(np.append(starts, size))


class _Batch:
    """Messages staged by one ``emit`` call, pending next-round delivery."""

    __slots__ = ("src", "dst", "tag", "value", "objs", "payload")

    def __init__(self, src, dst, tag, value, objs, payload):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.value = value
        self.objs = objs
        self.payload = payload


class VectorFabric:
    """The columnar twin of :class:`~repro.congest.engine.MessageFabric`.

    Owns per-batch message semantics — adjacency validation via the CSR
    flat-key index, the bandwidth budget, staging, and RoundStats
    accounting charged at send time keyed by the send round — plus the
    array helpers kernels build on (CSR row expansion, exact
    ``payload_bits`` replication for int tuples, per-node RNG
    derivation). Kernels receive it as ``ops``.
    """

    __slots__ = (
        "np", "csr", "n", "ids", "round", "stats", "run_seed",
        "bandwidth_bits", "enforce_bandwidth", "_staged", "_edge_counts",
    )

    def __init__(self, csr, stats, run_seed, bandwidth_bits, enforce_bandwidth):
        self.np = np
        self.csr = csr
        self.n = csr.n
        self.ids = csr.ids
        self.round = 0
        self.stats = stats
        self.run_seed = run_seed
        self.bandwidth_bits = bandwidth_bits
        self.enforce_bandwidth = enforce_bandwidth
        self._staged: list[_Batch] = []
        self._edge_counts = np.zeros(len(csr.indices), dtype=np.int64)

    # -- derivation helpers -------------------------------------------------

    def node_rng(self, index: int):
        """The node's ``ctx.rng`` stream: ``(run_seed, node_index)`` derived,
        identical to every interpreted backend."""
        return derive_node_rng(self.run_seed, int(index))

    def columns(self, dtypes: dict):
        """Zeroed state columns of length ``n``, one per dtype entry."""
        return {name: np.zeros(self.n, dtype=dt) for name, dt in dtypes.items()}

    def int_bits(self, values):
        """Vectorized :func:`repro.util.bitsize.bits_for_int`.

        ``max(1, bit_length) + sign`` per element. ``frexp`` yields the
        binary exponent exactly below 2**53; larger magnitudes (never
        produced by the shipped protocols) take the exact Python path.
        """
        values = np.asarray(values)
        magnitude = np.abs(values)
        if magnitude.size and int(magnitude.max()) >= 2**53:
            flat = [max(1, int(v).bit_length()) for v in magnitude.ravel()]
            bits = np.array(flat, dtype=np.int64).reshape(magnitude.shape)
        else:
            _, exponents = np.frexp(magnitude.astype(np.float64))
            bits = np.maximum(exponents, 1).astype(np.int64)
        return bits + (values < 0)

    def tuple_bits(self, *fields):
        """Exact ``payload_bits`` of an all-int tuple, vectorized.

        Each field contributes ``bits_for_int(field) + 2`` framing bits,
        matching :func:`repro.util.bitsize.payload_bits` on tuples of
        ints. Fields broadcast, so mixing scalars (tags) and arrays
        (values) is the common call shape.
        """
        total = None
        for values in fields:
            bits = self.int_bits(values) + 2
            total = bits if total is None else total + bits
        return total

    def expand(self, sources, indptr=None, indices=None):
        """Flatten the rows of ``sources``: ``(src_repeated, dst_flat)``.

        Defaults to the graph CSR (all neighbors of each source, in
        neighbor-index order); pass a kernel-built CSR (e.g. tree
        children) to expand other per-node lists.
        """
        if indptr is None:
            indptr, indices = self.csr.indptr, self.csr.indices
        sources = np.asarray(sources, dtype=np.int64)
        starts = indptr[sources]
        counts = indptr[sources + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # The j-th flattened entry sits at its row's start plus j minus the
        # entries of the rows before it.
        shift = starts - (np.cumsum(counts) - counts)
        slots = np.arange(total, dtype=np.int64) + np.repeat(shift, counts)
        return np.repeat(sources, counts), indices[slots]

    # -- emission -----------------------------------------------------------

    def emit(self, src, dst, *, bits, tag=None, value=None, objs=None,
             payload=_NO_PAYLOAD, materialize=None) -> None:
        """Stage one batch of messages for next-round delivery.

        ``src``/``dst`` are node-index arrays (one message per entry);
        ``bits`` is the exact per-message ``payload_bits`` (array or
        scalar, broadcast). The payload travels as the kernel's own
        columnar schema — ``tag``/``value`` int columns, an ``objs``
        object array, or one shared ``payload`` object.

        ``materialize(tag, value)`` names the Python payload a tag/value
        message stands for. The engine never calls it (receivers read the
        columns), but ``repro lint`` reads its return tuples as the
        batch's payload arity (KERNEL-EQ, PROTO-MSG), so a kernel that
        emits tag/value columns passes it.

        Validates adjacency and the bandwidth budget, and charges every
        RoundStats counter at send time keyed by the current round —
        byte-identical to ``MessageFabric.validate``/``record_message``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size == 0:
            return
        flat = self.csr.flat_keys
        keys = src * self.n + dst
        if flat.size == 0:
            self._raise_non_neighbor(src, dst, keys)
        slots = flat.searchsorted(keys)
        # Clip instead of masking out-of-range slots: a clipped slot can
        # only match its key if the key was the last flat key anyway, so
        # the equality check below still catches every non-edge.
        np.minimum(slots, flat.size - 1, out=slots)
        if not np.array_equal(flat.take(slots), keys):
            self._raise_non_neighbor(src, dst, keys)
        scalar_bits = np.ndim(bits) == 0
        stats = self.stats
        count = int(src.size)
        if scalar_bits:
            bits = int(bits)
            if self.enforce_bandwidth and bits > self.bandwidth_bits:
                self._raise_bandwidth(src, dst, np.broadcast_to(bits, src.shape))
            stats.message_bits += bits * count
        else:
            bits = np.asarray(bits, dtype=np.int64)
            if self.enforce_bandwidth and (bits > self.bandwidth_bits).any():
                self._raise_bandwidth(src, dst, bits)
            stats.message_bits += int(bits.sum())
        stats.messages += count
        round_no = self.round
        stats.messages_by_round[round_no] = (
            stats.messages_by_round.get(round_no, 0) + count
        )
        np.add.at(self._edge_counts, slots, 1)

        self._staged.append(_Batch(
            src, dst, _int_column(tag, src.shape), _int_column(value, src.shape),
            objs, payload,
        ))

    def _raise_non_neighbor(self, src, dst, keys):
        nodes = self.csr.nodes
        flat = self.csr.flat_keys
        good = np.isin(keys, flat)
        j = int(np.flatnonzero(~good)[0])
        raise CongestViolation(
            f"node {nodes[int(src[j])]} tried to message "
            f"non-neighbor {nodes[int(dst[j])]}"
        )

    def _raise_bandwidth(self, src, dst, bits_arr):
        nodes = self.csr.nodes
        j = int(np.flatnonzero(bits_arr > self.bandwidth_bits)[0])
        raise CongestViolation(
            f"node {nodes[int(src[j])]} sent a {int(bits_arr[j])}-bit "
            f"message to {nodes[int(dst[j])]}; "
            f"budget is {self.bandwidth_bits} bits"
        )

    def flush_edge_counts(self) -> None:
        """Fold the per-slot send counters into ``stats.edge_messages``."""
        counts = self._edge_counts
        hot = np.flatnonzero(counts)
        if hot.size == 0:
            return
        pairs = self.csr.slot_pairs()
        if hot.size == counts.size:  # every edge carried traffic (BFS)
            keys = pairs
            totals = counts.tolist()
        else:
            keys = [pairs[i] for i in hot.tolist()]
            totals = counts[hot].tolist()
        edge_messages = self.stats.edge_messages
        if edge_messages:
            for key, total in zip(keys, totals):
                edge_messages[key] = edge_messages.get(key, 0) + total
        else:
            # One slot per directed edge, so the keys are unique — a bulk
            # update is exact when nothing was charged yet.
            edge_messages.update(zip(keys, totals))


def _plan(csr, algorithms):
    """The run's kernel, or the reason the run delegates to ``event``."""
    classes = set(map(type, algorithms.values()))
    if len(classes) != 1:
        names = ", ".join(sorted(cls.__name__ for cls in classes))
        return f"the population mixes algorithm classes ({names})"
    cls = classes.pop()
    kernel_cls = cls.vector_kernel
    if kernel_cls is None:
        return f"{cls.__name__} declares no VectorKernel"
    if not kernel_cls.accepts(csr, algorithms):
        return f"{kernel_cls.__name__} refused the instance"
    return kernel_cls()


def _int_column(values, shape):
    """A batch's int64 column: a scalar (``None`` reads as 0) filled out to
    ``shape``, or an array used as is (broadcast if it is shorter).

    Batches are read downstream, never written. A fill is cheaper to make
    than a broadcast view at the sizes one emit carries.
    """
    if np.ndim(values) == 0:
        return np.full(shape, 0 if values is None else values, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _shared_fill(size, fill):
    shared = np.empty(size, dtype=object)
    # ndarray.fill stores the object itself per slot; slice assignment
    # would try to broadcast sequence payloads (tuples) element-wise.
    shared.fill(fill)
    return shared


def _build_inbox(batches):
    """Assemble one round's :class:`VectorInbox` from its staged batches."""
    if len(batches) == 1:
        batch = batches[0]
        objs = batch.objs
        if objs is None and batch.payload is not _NO_PAYLOAD:
            objs = _shared_fill(batch.src.size, batch.payload)
        return VectorInbox(batch.src, batch.dst, batch.tag, batch.value, objs)
    objs = None
    if any(b.objs is not None or b.payload is not _NO_PAYLOAD for b in batches):
        objs = np.concatenate([
            b.objs if b.objs is not None else _shared_fill(
                b.src.size, b.payload if b.payload is not _NO_PAYLOAD else None,
            )
            for b in batches
        ])
    return VectorInbox(
        np.concatenate([b.src for b in batches]),
        np.concatenate([b.dst for b in batches]),
        np.concatenate([b.tag for b in batches]),
        np.concatenate([b.value for b in batches]),
        objs,
    )


class VectorizedBackend(SchedulerBackend):
    """Columnar gather -> apply -> scatter execution over a CSR adjacency.

    One kernel executes every node as whole-round array passes; the run
    quiesces on the first round with nothing staged. ``sanitize=`` has
    nothing to check here (no spurious wakes are ever generated, as on
    ``event``). Populations the backend cannot run as one kernel
    delegate to the event backend with a provenance note in
    ``stats.notes`` — see the module docstring for the full policy.
    """

    name = "vectorized"

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        if np is None:  # direct instantiation without the extra installed
            raise CongestViolation(NUMPY_HINT)
        from repro.graphs.adjacency import graph_csr

        csr = graph_csr(net.graph)
        kernel = _plan(csr, algorithms)
        if isinstance(kernel, str):
            results, stats = get_backend("event")().execute(
                net, algorithms, run_seed, max_rounds, raise_on_timeout
            )
            stats.notes = stats.notes + (
                f"scheduler='vectorized' delegated to the event backend: {kernel}",
            )
            return results, stats
        stats = RoundStats()
        ops = VectorFabric(
            csr, stats, run_seed, net.bandwidth_bits, net.enforce_bandwidth
        )
        kernel.setup(ops, algorithms)
        kernel.on_start(ops)
        while ops._staged:
            now = ops.round + 1
            if now > max_rounds:
                timeout(stats, max_rounds, raise_on_timeout)
                break
            stats.rounds = ops.round = now
            batches, ops._staged = ops._staged, []
            # Gather -> apply -> scatter. Each receiver counts one
            # activation, exactly an event-backend wake with a non-empty
            # inbox.
            inbox = _build_inbox(batches)
            stats.activations += int(inbox.receivers.size)
            ready = kernel.apply(ops, inbox)
            if ready is not None and len(ready):
                kernel.scatter(ops, ready)

        ops.flush_edge_counts()
        results: dict = {}
        kernel.fill_results(ops, results)
        if len(results) != csr.n:
            missing = csr.n - len(results)
            raise CongestViolation(
                f"kernel fill_results left {missing} nodes without a result"
            )
        return results, stats


if np is not None:
    register_backend(VectorizedBackend)
else:  # pragma: no cover - exercised by the registry tests via the stub API
    register_unavailable_backend(VectorizedBackend.name, NUMPY_HINT)
