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
reports per-node results in :meth:`~VectorKernel.fill_results`. A kernel
may *claim* only a subset of its instances (:meth:`~VectorKernel.claim`
— e.g. the ack sweep's leaf tier); unclaimed nodes run on the
event-backend activation rule in the same round loop, so kernel and
interpreted tiers interoperate within one execution.

Fallback policy
---------------

The backend is transparent: when any algorithm class in the run has no
kernel (``vector_kernel is None``), or its kernel refuses the instance
(:meth:`VectorKernel.accepts` — e.g. BFS on non-integer node labels),
the whole run is delegated to the ``event`` backend — legal because
backends are observably identical by contract — and the delegation is
recorded as a provenance note in ``stats.notes``. ``scheduler=``
threading through primitives, apps, and the CLI therefore keeps working
unchanged; ``sanitize=`` is a documented no-op here (the round loop never
produces the spurious wakes the sanitizer checks).

Determinism and byte-identity
-----------------------------

Per-node RNG streams remain derived from ``(run_seed, node_index)``
(:meth:`VectorFabric.node_rng`); CSR rows are sorted by neighbor index
so gathers reproduce sender-index inbox order; kernel receivers count
one activation per round exactly like event-backend wakes; timeouts,
fast-forward over timer-only stretches, and quiescence replicate the
event loop. The backend equivalence suite
(``tests/congest/test_scheduler.py``) enforces identical results and
stats against every registered backend for every tested seed.

Requires numpy (the ``repro[vectorized]`` extra). Without it this module
still imports and registers the name as *unavailable*, so
``get_backend("vectorized")`` fails with the install hint instead of an
unknown-scheduler error.
"""

from __future__ import annotations

from repro.congest.engine import (
    MessageFabric,
    SchedulerBackend,
    Stepper,
    get_backend,
    node_contexts,
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

    One kernel instance executes *all* claimed nodes of its algorithm
    class; per-node state lives in arrays indexed by node index (the
    graph's node order), not in the per-node instances. Subclasses
    override the hooks below; every hook receives the run's
    :class:`VectorFabric` (``ops``) for emission, CSR expansion, bit
    accounting, and RNG derivation.

    The engine drives a round as: deliveries are gathered into a
    :class:`VectorInbox` (sorted by receiver then sender index), then
    ``ready = kernel.apply(ops, inbox)`` advances state, then
    ``kernel.scatter(ops, ready)`` emits — the apply/scatter kernel split
    of the FPGA graph engines. Kernels are message-driven: there is no
    keep-alive or timer surface on the columnar path (algorithms needing
    one stay on the interpreted tier).

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

    #: True when claimed nodes emit only in ``on_start`` and never
    #: receive (the ack sweep's leaf tier). The engine rejects any
    #: message addressed to a claimed node of an inert kernel — such a
    #: delivery could only mean a protocol violation.
    inert_after_start = False

    @classmethod
    def accepts(cls, csr, members, algorithms) -> bool:
        """Whether this kernel can execute these instances columnar.

        Refusing (e.g. BFS without integer node ids to order advertisers
        by) falls the whole run back to the event backend.
        """
        return True

    def claim(self, csr, members, algorithms):
        """Indices (subset of ``members``) this kernel executes.

        Defaults to all members; unclaimed nodes run interpreted.
        """
        return members

    def setup(self, ops, claimed, algorithms) -> None:
        """Build state columns from the per-node instances (once per run)."""

    def on_start(self, ops) -> None:
        """Round-0 emission (``NodeAlgorithm.on_start`` for the column tier)."""

    def apply(self, ops, inbox):
        """Advance state for this round's receivers; return the ready set.

        The return value (an index array, or ``None``) is handed to
        :meth:`scatter` when non-empty.
        """
        return None

    def scatter(self, ops, ready) -> None:
        """Emit messages for the nodes :meth:`apply` marked ready."""

    def fill_results(self, ops, results: dict) -> None:
        """Write ``results[node_id]`` for every claimed node."""

    def ingest(self, payload):
        """Convert an interpreted node's payload into ``(tag, value)`` ints.

        Only called when an interpreted-tier node messages a
        kernel-claimed node. The default refuses: none of the shipped
        hybrid protocols route interpreted traffic into a kernel tier,
        and silently guessing a schema would corrupt the columns.
        """
        raise CongestViolation(
            f"{type(self).__name__} does not ingest interpreted-tier "
            "messages; override VectorKernel.ingest to accept them"
        )


class VectorInbox:
    """One round of deliveries to a kernel's claimed nodes, columnar.

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
        "bandwidth_bits", "enforce_bandwidth", "_owner", "_staged",
        "_edge_counts", "_interp", "_has_interp",
    )

    def __init__(self, csr, owner, stats, run_seed, bandwidth_bits,
                 enforce_bandwidth, has_interp=True):
        self.np = np
        self.csr = csr
        self.n = csr.n
        self.ids = csr.ids
        self.round = 0
        self.stats = stats
        self.run_seed = run_seed
        self.bandwidth_bits = bandwidth_bits
        self.enforce_bandwidth = enforce_bandwidth
        self._owner = owner
        self._staged: list[_Batch] = []
        self._edge_counts = np.zeros(len(csr.indices), dtype=np.int64)
        self._interp = None  # the interpreted tier's Stepper, if any
        # Pure-kernel runs (no interpreted tier) skip the per-emit
        # owner-split entirely.
        self._has_interp = has_interp

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
        object array, or one shared ``payload`` object. Messages whose
        destination runs on the interpreted tier are materialized to
        Python payloads here (``objs``/``payload`` directly, else
        ``materialize(tag, value)`` per message) and staged into that
        tier's next-round arrivals.

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

        tag_arr = _int_column(tag, src.shape)
        value_arr = _int_column(value, src.shape)
        if self._has_interp:
            interp = self._owner[dst] < 0
            if interp.any():
                self._stage_to_interp(
                    src[interp], dst[interp], tag_arr[interp],
                    value_arr[interp],
                    objs[interp] if objs is not None else None,
                    payload, materialize,
                )
                keep = ~interp
                if not keep.any():
                    return
                src, dst = src[keep], dst[keep]
                tag_arr, value_arr = tag_arr[keep], value_arr[keep]
                objs = objs[keep] if objs is not None else None
        self._staged.append(_Batch(src, dst, tag_arr, value_arr, objs, payload))

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

    def _stage_to_interp(self, src, dst, tags, values, objs, payload,
                         materialize) -> None:
        """Materialize kernel emissions bound for interpreted-tier inboxes."""
        nodes = self.csr.nodes
        arrive_at = self.round + 1
        for j, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            if objs is not None:
                item = objs[j]
            elif payload is not _NO_PAYLOAD:
                item = payload
            elif materialize is not None:
                item = materialize(int(tags[j]), int(values[j]))
            else:
                raise CongestViolation(
                    f"kernel message from node {nodes[s]} to interpreted "
                    f"node {nodes[d]} has no materializer; pass objs=, "
                    "payload=, or materialize= to emit()"
                )
            self._interp.arrive(arrive_at, nodes[d], (s, nodes[s], item))

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
            # update is exact when nothing was charged yet (the common
            # pure-kernel case; the interpreted tier charges eagerly).
            edge_messages.update(zip(keys, totals))


class _TierFabric(MessageFabric):
    """The interpreted tier's fabric: sends to kernel-claimed nodes divert.

    A message to a kernel-owned target is validated and charged here, then
    converted by that kernel's :meth:`VectorKernel.ingest` into its next
    round's columnar inbox (``ingested[slot]``); everything else stages on
    the interpreted tier's :class:`~repro.congest.engine.Stepper`.
    """

    __slots__ = ("kernels", "owner", "index", "ingested")

    def __init__(self, net, stats, kernels, owner, index):
        super().__init__(
            net.graph._adj, net.bandwidth_bits, net.enforce_bandwidth, stats
        )
        self.kernels = kernels
        self.owner = owner
        self.index = index
        self.ingested = [[] for _ in kernels]

    def stage(self, sender, sender_index, outbox, now, clock):
        sizes = self.validate(sender, outbox)
        interpreted, interpreted_sizes = {}, []
        for (target, item), bits in zip(outbox.items(), sizes):
            target_index = self.index.get(target)
            if target_index is None or self.owner[target_index] < 0:
                interpreted[target] = item
                interpreted_sizes.append(bits)
                continue
            self.stats.record_message(sender, target, bits, now)
            slot = int(self.owner[target_index])
            kernel = self.kernels[slot][0]
            if kernel.inert_after_start:
                raise CongestViolation(
                    f"node {sender} messaged {target}, which is claimed "
                    f"by the inert {type(kernel).__name__} kernel and "
                    "can no longer receive"
                )
            tag, value = kernel.ingest(item)
            self.ingested[slot].append((sender_index, target_index, tag, value))
        self.stage_sized(sender, sender_index, interpreted, interpreted_sizes, now, clock)


def _plan(csr, net, algorithms):
    """Partition the node set into kernel tiers, or explain the fallback.

    Returns ``(kernels, owner, interpreted)`` — ``kernels`` a list of
    ``(kernel, claimed_indices)``, ``owner`` mapping node index to kernel
    slot (``-1`` = interpreted) — or a string reason when the run must
    delegate to the event backend.
    """
    classes = set(map(type, algorithms.values()))
    if len(classes) == 1:
        # Homogeneous run (the overwhelmingly common case): all nodes in
        # graph order, no per-node grouping pass.
        groups = {classes.pop(): None}
    else:
        groups = {cls: [] for cls in classes}
        for i, v in enumerate(net._nodes):
            groups[type(algorithms[v])].append(i)
    kernels = []
    owner = np.full(csr.n, -1, dtype=np.int64)
    for cls, member_list in groups.items():
        kernel_cls = cls.vector_kernel
        if kernel_cls is None:
            return f"{cls.__name__} declares no VectorKernel"
        if member_list is None:
            members = np.arange(csr.n, dtype=np.int64)
        else:
            members = np.array(member_list, dtype=np.int64)
        if not kernel_cls.accepts(csr, members, algorithms):
            return f"{kernel_cls.__name__} refused the instance"
        kernel = kernel_cls()
        claimed = np.asarray(
            kernel.claim(csr, members, algorithms), dtype=np.int64
        )
        if claimed.size:
            owner[claimed] = len(kernels)
        kernels.append((kernel, claimed))
    interpreted = np.flatnonzero(owner < 0).tolist()
    return kernels, owner, interpreted


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


def _build_inbox(batches, ingested, owner, slot, whole=False):
    """Assemble one kernel's :class:`VectorInbox` from this round's batches.

    With ``whole=True`` (single kernel claiming every node, no
    interpreted tier) the owner-mask pass is skipped: every staged
    message belongs to this kernel.
    """
    if whole and not ingested:
        if not batches:
            return None
        if len(batches) == 1:
            batch = batches[0]
            objs = batch.objs
            if objs is None and batch.payload is not _NO_PAYLOAD:
                objs = _shared_fill(batch.src.size, batch.payload)
            return VectorInbox(batch.src, batch.dst, batch.tag, batch.value,
                               objs)
        objs = None
        if any(b.objs is not None or b.payload is not _NO_PAYLOAD
               for b in batches):
            objs = np.concatenate([
                b.objs if b.objs is not None else _shared_fill(
                    b.src.size,
                    b.payload if b.payload is not _NO_PAYLOAD else None,
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
    srcs, dsts, tags, values, obj_parts = [], [], [], [], []
    have_objs = False
    for batch in batches:
        mask = owner[batch.dst] == slot
        if not mask.any():
            continue
        srcs.append(batch.src[mask])
        dsts.append(batch.dst[mask])
        tags.append(batch.tag[mask])
        values.append(batch.value[mask])
        if batch.objs is not None:
            obj_parts.append(batch.objs[mask])
            have_objs = True
        else:
            obj_parts.append(batch.payload if batch.payload is not _NO_PAYLOAD
                             else None)
            have_objs = have_objs or batch.payload is not _NO_PAYLOAD
    if ingested:
        srcs.append(np.array([entry[0] for entry in ingested], dtype=np.int64))
        dsts.append(np.array([entry[1] for entry in ingested], dtype=np.int64))
        tags.append(np.array([entry[2] for entry in ingested], dtype=np.int64))
        values.append(np.array([entry[3] for entry in ingested], dtype=np.int64))
        obj_parts.append(None)
    if not srcs:
        return None
    objs = None
    if have_objs:
        filled = []
        for part, fill in zip(srcs, obj_parts):
            if isinstance(fill, np.ndarray):
                filled.append(fill)
            else:
                filled.append(_shared_fill(part.size, fill))
        objs = np.concatenate(filled)
    return VectorInbox(
        np.concatenate(srcs), np.concatenate(dsts),
        np.concatenate(tags), np.concatenate(values), objs,
    )


class VectorizedBackend(SchedulerBackend):
    """Columnar gather -> apply -> scatter execution over a CSR adjacency.

    Kernel-claimed nodes execute as whole-round array passes; unclaimed
    nodes run the event activation rule (active set, keep-alive latches,
    timer wheel with fast-forward) in the same round loop, exchanging
    messages with the kernel tier at round boundaries. ``sanitize=`` has
    nothing to check here (no spurious wakes are ever generated, as on
    ``event``). Runs whose algorithms carry no kernel delegate to the event
    backend with a provenance note in ``stats.notes`` — see the module
    docstring for the full policy.
    """

    name = "vectorized"

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        if np is None:  # direct instantiation without the extra installed
            raise CongestViolation(NUMPY_HINT)
        from repro.graphs.adjacency import graph_csr

        csr = graph_csr(net.graph)
        plan = _plan(csr, net, algorithms)
        if isinstance(plan, str):
            results, stats = get_backend("event")().execute(
                net, algorithms, run_seed, max_rounds, raise_on_timeout
            )
            stats.notes = stats.notes + (
                f"scheduler='vectorized' delegated to the event backend: {plan}",
            )
            return results, stats
        kernels, owner, interpreted = plan
        nodes = net._nodes
        index = csr.index
        stats = RoundStats()
        ops = VectorFabric(
            csr, owner, stats, run_seed, net.bandwidth_bits,
            net.enforce_bandwidth, has_interp=bool(interpreted),
        )
        # A run with every node kernel-claimed (the common case) skips
        # the whole interpreted tier: no fabric, no per-node contexts, no
        # adjacency-dict materialization.
        whole = len(kernels) == 1 and not interpreted
        fabric = interp = None
        if interpreted:
            # Interpreted tier: the event engine over the unclaimed nodes
            # (the kernel tier has no keep-alive or timers by contract).
            # Kernel emissions join its inboxes after its own same-round
            # sends, so it re-sorts by sender index.
            fabric = _TierFabric(net, stats, kernels, owner, index)
            interp = ops._interp = Stepper(
                algorithms, node_contexts(net, run_seed, interpreted), index,
                fabric, resort=True,
            )

        # Round 0: kernel setup + on_start, then the interpreted tier's
        # on_start in node order (cross-tier order is unobservable — no
        # activation sees another's same-round sends).
        for kernel, claimed in kernels:
            kernel.setup(ops, claimed, algorithms)
        for kernel, claimed in kernels:
            kernel.on_start(ops)
        if interp is not None:
            interp.start()

        ingested = [[] for _ in kernels]
        round_no = 0
        while True:
            tick = interp.next_tick() if interp is not None else None
            if ops._staged or (fabric is not None and any(fabric.ingested)):
                now = round_no + 1
            elif tick is None:
                break
            else:
                now = tick  # only interpreted timers remain: fast-forward
            if now > max_rounds:
                timeout(stats, max_rounds, raise_on_timeout)
                break
            round_no = stats.rounds = ops.round = now

            batches, ops._staged = ops._staged, []
            if fabric is not None:
                ingested, fabric.ingested = fabric.ingested, [[] for _ in kernels]
            if tick == now:
                interp.step(now)

            # Kernel tier: gather -> apply -> scatter per kernel. Each
            # receiver counts one activation, exactly an event-backend
            # wake with a non-empty inbox.
            for slot, (kernel, _) in enumerate(kernels):
                inbox = _build_inbox(batches, ingested[slot], owner, slot,
                                     whole=whole)
                if inbox is None:
                    continue
                stats.activations += int(inbox.receivers.size)
                ready = kernel.apply(ops, inbox)
                if ready is not None and len(ready):
                    kernel.scatter(ops, ready)

        ops.flush_edge_counts()
        results: dict = {}
        for kernel, _ in kernels:
            kernel.fill_results(ops, results)
        for i in interpreted:
            v = nodes[i]
            results[v] = algorithms[v].result()
        if len(results) != len(nodes):
            missing = len(nodes) - len(results)
            raise CongestViolation(
                f"kernel fill_results left {missing} nodes without a result"
            )
        return results, stats


if np is not None:
    register_backend(VectorizedBackend)
else:  # pragma: no cover - exercised by the registry tests via the stub API
    register_unavailable_backend(VectorizedBackend.name, NUMPY_HINT)
