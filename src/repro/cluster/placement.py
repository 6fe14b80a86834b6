"""Block placement policies.

Section 2.1: "The 14 blocks belonging to a particular stripe are placed
on 14 different (randomly chosen) machines ... chosen from different
racks."  :class:`DistinctRackPlacement` implements exactly that; a
relaxed :class:`DistinctNodePlacement` (distinct machines, racks allowed
to repeat) exists for ablations showing how much recovery traffic the
rack constraint turns into cross-rack traffic.

:class:`DeterministicRoundRobinPlacement` (``"d3"``) replaces the
random draws with a splitmix64-keyed round-robin schedule (in the
spirit of D3, "Deterministic Data Distribution for Efficient
Recovery"): stripes visit racks in a fixed keyed permutation, so
per-rack stripe load is balanced to within one unit by construction,
and replacement destinations are picked by a deterministic
least-loaded rule over a maintained per-rack load vector instead of a
uniform draw.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.topology import Topology
from repro.errors import PlacementError


#: splitmix64 multipliers (Steele et al., "Fast splittable PRNGs").
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over uint64 (wrapping on purpose)."""
    with np.errstate(over="ignore"):
        z = x + _SM64_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM64_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SM64_MUL2
        return z ^ (z >> np.uint64(31))


def destination_entropy(seed_sequence: np.random.SeedSequence) -> int:
    """The 64-bit key hashed destination draws mix in.

    Derived from the recovery seed via ``generate_state`` (a pure
    function of the SeedSequence -- it does not consume anything the
    recovery Generator later draws), so both simulation engines and
    every shard compute the identical key from the config seed.
    """
    words = seed_sequence.generate_state(2, dtype=np.uint32)
    return int(words[0]) << 32 | int(words[1])


_U64_MASK = 0xFFFFFFFFFFFFFFFF

#: d3 destination key of a rack hosting an excluded node.
_EXCLUDED_RACK = np.iinfo(np.int64).max


def _splitmix64_int(x: int) -> int:
    """Scalar splitmix64 finaliser; bit-identical to :func:`_splitmix64`."""
    z = (x + 0x9E3779B97F4A7C15) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def _hash_pair(
    uids: np.ndarray, ordinal: int, entropy: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Two independent uint64 hashes per unit for one flag event."""
    salt = np.uint64(
        _splitmix64_int((ordinal & _U64_MASK) ^ (entropy & _U64_MASK))
    )
    with np.errstate(over="ignore"):
        base = _splitmix64(uids.astype(np.uint64) + salt)
        return _splitmix64(base), _splitmix64(base ^ _SM64_GAMMA)


def _sorted_with_first(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-sorted matrix plus a mask of each row's first occurrences.

    ``first.sum(axis=1)`` counts distinct values per row and
    ``(mat <= v) & first`` counts distinct values <= v, the two
    reductions batched candidate selection needs.
    """
    mat = np.sort(mat, axis=1)
    first = np.ones(mat.shape, dtype=bool)
    first[:, 1:] = mat[:, 1:] != mat[:, :-1]
    return mat, first


def _nth_not_excluded(
    sorted_mat: np.ndarray, first: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Per row: the ``idx``-th value *not* present in the row.

    Least fixpoint of ``v = idx + |{distinct row values <= v}|`` -- the
    vectorised form of the scalar bump loop in ``replacement_node``.
    Converges within ``row width`` rounds because each bump skips at
    least one distinct excluded value.
    """
    vals = idx
    for _ in range(sorted_mat.shape[1] + 1):
        bumped = idx + ((sorted_mat <= vals[:, None]) & first).sum(axis=1)
        if np.array_equal(bumped, vals):
            break
        vals = bumped
    return vals


class PlacementPolicy(abc.ABC):
    """Chooses the nodes that store one stripe's units.

    ``spares_per_rack`` reserves the top ``spares_per_rack`` node slots
    of every rack as a hot-spare pool: stripe placement never touches
    them, and rack-preferring replacement draws target them, so repair
    destinations are pre-reserved capacity instead of competing with
    data nodes.  0 (the default) reproduces the historical draws
    bit-for-bit.
    """

    #: True for policies whose replacement picks mutate policy state
    #: (e.g. the d3 load vector).  Stateful policies need destination
    #: draws applied in trajectory order, so the sharded engine runs
    #: them coordinator-driven and precomputed destinations are
    #: re-drawn (with commit) when the repair actually lands.
    stateful = False

    def __init__(
        self, topology: Topology, seed: int = 0, spares_per_rack: int = 0
    ):
        if not 0 <= spares_per_rack < topology.nodes_per_rack:
            raise PlacementError(
                f"spares_per_rack={spares_per_rack} leaves no data nodes "
                f"in racks of {topology.nodes_per_rack}"
            )
        self.topology = topology
        self.spares_per_rack = spares_per_rack
        self.data_nodes_per_rack = topology.nodes_per_rack - spares_per_rack
        self.rng = np.random.default_rng(seed)

    def is_spare(self, node: int) -> bool:
        """Whether a node id falls in the reserved spare pool."""
        return (
            self.spares_per_rack > 0
            and node % self.topology.nodes_per_rack
            >= self.data_nodes_per_rack
        )

    @abc.abstractmethod
    def place_stripe(self, width: int) -> List[int]:
        """Return ``width`` node ids for one stripe's units, in order."""

    def place_many(self, num_stripes: int, width: int) -> np.ndarray:
        """Placement matrix of shape ``(num_stripes, width)``."""
        return np.array(
            [self.place_stripe(width) for _ in range(num_stripes)],
            dtype=np.int32,
        )

    def replacement_node(
        self, exclude_nodes: Sequence[int], prefer_new_rack: bool = True
    ) -> int:
        """Destination for a rebuilt unit.

        Prefers a node on a rack hosting none of ``exclude_nodes`` (so
        the stripe stays rack-diverse after recovery); falls back to any
        node outside ``exclude_nodes``.

        This is the hottest per-unit step of recovery, so instead of
        materialising candidate arrays it draws an *index* into the
        (ascending) candidate set and locates that candidate by order
        statistics over the small sorted exclude set.
        ``Generator.choice(a)`` consumes exactly one
        ``integers(0, len(a))`` draw, so the rng stream -- and therefore
        every trajectory -- is identical to the choice-based
        formulation.
        """
        num_nodes = self.topology.num_nodes
        nodes_per_rack = self.topology.nodes_per_rack
        if isinstance(exclude_nodes, np.ndarray):
            exclude_nodes = exclude_nodes.tolist()
        # Out-of-range ids never excluded a real node or rack; drop them.
        exclude = sorted(
            {int(n) for n in exclude_nodes if 0 <= n < num_nodes}
        )
        if prefer_new_rack:
            used_racks = sorted({n // nodes_per_rack for n in exclude})
            num_free = self.topology.num_racks - len(used_racks)
            if num_free:
                # idx-th free rack == choice over ascending free racks.
                rack = int(self.rng.integers(0, num_free))
                for used in used_racks:
                    if used <= rack:
                        rack += 1
                    else:
                        break
                # With a spare pool the in-rack draw targets it; without
                # one this is the historical whole-rack draw.
                if self.spares_per_rack:
                    offset = self.data_nodes_per_rack + int(
                        self.rng.integers(0, self.spares_per_rack)
                    )
                else:
                    offset = int(self.rng.integers(0, nodes_per_rack))
                return rack * nodes_per_rack + offset
        num_candidates = num_nodes - len(exclude)
        if not num_candidates:
            raise PlacementError("no node available for replacement")
        if self.spares_per_rack:
            # No-free-rack fallback with a spare pool: the reserved
            # slots exist precisely so repairs do not land on data
            # nodes, so draw over the non-excluded spares first and
            # touch data nodes only when every spare is excluded.
            node = self._spare_fallback_scalar(exclude)
            if node is not None:
                return node
        node = int(self.rng.integers(0, num_candidates))
        for excluded in exclude:
            if excluded <= node:
                node += 1
            else:
                break
        return node

    def _spare_fallback_scalar(self, exclude: List[int]) -> Optional[int]:
        """Uniform draw over non-excluded spare slots; None if all taken.

        Spares are ranked ``rack * spares_per_rack + (offset -
        data_nodes_per_rack)`` so the index draw plus the usual bump
        loop locates the candidate without materialising the pool.
        """
        npr = self.topology.nodes_per_rack
        spares = self.spares_per_rack
        num_spares = self.topology.num_racks * spares
        excluded_ranks = sorted(
            (n // npr) * spares + (n % npr - self.data_nodes_per_rack)
            for n in exclude
            if n % npr >= self.data_nodes_per_rack
        )
        num_candidates = num_spares - len(excluded_ranks)
        if not num_candidates:
            return None
        rank = int(self.rng.integers(0, num_candidates))
        for taken in excluded_ranks:
            if taken <= rank:
                rank += 1
            else:
                break
        rack, offset = divmod(rank, spares)
        return rack * npr + self.data_nodes_per_rack + offset

    def replacement_nodes(
        self,
        exclude_rows: np.ndarray,
        extra_excludes: Sequence[int] = (),
        prefer_new_rack: bool = True,
    ) -> Optional[np.ndarray]:
        """Batched :meth:`replacement_node` for many units at once.

        ``exclude_rows[i]`` holds unit ``i``'s stripe nodes and
        ``extra_excludes`` the cluster-wide down nodes; both must be
        in-range node ids.  Consumes the rng stream exactly as the
        equivalent sequence of ``replacement_node(row + extra)`` calls
        (``Generator.integers`` with an array of highs draws
        element-wise in order), so destinations are bit-identical.

        Returns None when any unit would take the no-free-rack fallback
        branch -- its draw count differs per unit, so the caller must
        loop :meth:`replacement_node` over the same rows instead (small
        clusters only; at the paper's 100-rack scale a free rack always
        exists).  That scalar loop is the single implementation of the
        fallback rule: with ``spares_per_rack > 0`` it draws from the
        non-excluded spare pool first and touches data nodes only when
        every spare is excluded, so the batched path inherits the
        spare-pool semantics through this bailout rather than
        duplicating them.
        """
        nodes_per_rack = self.topology.nodes_per_rack
        num_units = exclude_rows.shape[0]
        extra = np.asarray(extra_excludes, dtype=np.int64)
        if extra.size:
            exclude_mat = np.concatenate(
                [
                    exclude_rows,
                    np.broadcast_to(extra, (num_units, extra.size)),
                ],
                axis=1,
            )
        else:
            exclude_mat = exclude_rows
        if prefer_new_rack:
            rack_mat, first = _sorted_with_first(exclude_mat // nodes_per_rack)
            num_free = self.topology.num_racks - first.sum(axis=1)
            if not np.all(num_free > 0):
                return None
            # Interleave (free-rack draw, in-rack offset draw) per unit
            # -- the scalar path's exact consumption order.
            highs = np.empty(2 * num_units, dtype=np.int64)
            highs[0::2] = num_free
            highs[1::2] = self.spares_per_rack or nodes_per_rack
            offset_base = (
                self.data_nodes_per_rack if self.spares_per_rack else 0
            )
            draws = self.rng.integers(0, highs)
            racks = _nth_not_excluded(rack_mat, first, draws[0::2])
            return racks * nodes_per_rack + offset_base + draws[1::2]
        node_mat, first = _sorted_with_first(exclude_mat)
        num_candidates = self.topology.num_nodes - first.sum(axis=1)
        if not np.all(num_candidates > 0):
            return None
        return _nth_not_excluded(
            node_mat, first, self.rng.integers(0, num_candidates)
        )

    def hashed_replacement_nodes(
        self,
        exclude_rows: np.ndarray,
        extra_excludes: Sequence[int],
        uids: np.ndarray,
        ordinal: int,
        entropy: int,
        prefer_new_rack: bool = True,
        commit: bool = True,
    ) -> np.ndarray:
        """Counter-hashed :meth:`replacement_nodes` (``"hashed"`` mode).

        Chooses over the same candidate sets as the stream path --
        prefer a rack hosting no excluded node, else any non-excluded
        node -- but the per-unit randomness is ``splitmix64`` of
        ``(unit id, flag ordinal, entropy)`` instead of draws from a
        shared sequential rng.  A unit's destination therefore depends
        only on its own identity and the flag event, never on how many
        draws other units consumed first; that independence is what
        allows sharded execution to reproduce the serial oracle
        exactly.  Deterministic, rng-free, and uniform over candidates
        up to a <=2**-53 modulo bias.

        Unlike :meth:`replacement_nodes` there is no ``None`` bailout:
        a unit with no free rack takes the node-level fallback
        individually (draw counts cannot desynchronise a stream that
        does not exist).  The fallback follows the same spare-pool rule
        as the stream path: with ``spares_per_rack > 0`` it indexes
        into the non-excluded spare slots and falls through to the
        any-node candidate set only when every spare is excluded.

        ``commit`` is ignored here (hashing is a pure function); it
        exists so stateful policies can expose peek-only draws through
        the same signature.
        """
        nodes_per_rack = self.topology.nodes_per_rack
        num_units = exclude_rows.shape[0]
        uids = np.asarray(uids, dtype=np.int64)
        extra = np.asarray(extra_excludes, dtype=np.int64)
        h_rack, h_node = _hash_pair(uids, ordinal, entropy)
        out = np.empty(num_units, dtype=np.int64)
        node_level = np.ones(num_units, dtype=bool)
        if prefer_new_rack:
            # Rack occupancy as a boolean matrix: one shared row for the
            # cluster-wide down list, per-unit marks for stripe nodes.
            # ``cumsum`` then reads off both the free-rack count and the
            # idx-th free rack (ascending) in one pass -- the same
            # candidate order statistics as the sort-based stream path,
            # without the row sort.
            used = np.zeros((num_units, self.topology.num_racks), dtype=bool)
            if extra.size:
                used[:, np.unique(extra // nodes_per_rack)] = True
            rack_rows = exclude_rows // nodes_per_rack
            used[
                np.repeat(np.arange(num_units), rack_rows.shape[1]),
                rack_rows.ravel(),
            ] = True
            free_cum = np.cumsum(~used, axis=1)
            num_free = free_cum[:, -1]
            has_free = num_free > 0
            if np.any(has_free):
                idx = (
                    h_rack[has_free] % num_free[has_free].astype(np.uint64)
                ).astype(np.int64)
                racks = np.argmax(free_cum[has_free] > idx[:, None], axis=1)
                offsets = (
                    h_node[has_free]
                    % np.uint64(self.spares_per_rack or nodes_per_rack)
                ).astype(np.int64)
                if self.spares_per_rack:
                    offsets += self.data_nodes_per_rack
                out[has_free] = racks * nodes_per_rack + offsets
            node_level = ~has_free
        if np.any(node_level):
            if extra.size:
                exclude_mat = np.concatenate(
                    [
                        exclude_rows[node_level],
                        np.broadcast_to(
                            extra, (int(node_level.sum()), extra.size)
                        ),
                    ],
                    axis=1,
                )
            else:
                exclude_mat = exclude_rows[node_level]
            hashes = h_node[node_level]
            sub = np.empty(exclude_mat.shape[0], dtype=np.int64)
            unresolved = np.ones(exclude_mat.shape[0], dtype=bool)
            if self.spares_per_rack:
                # Spare-pool rule: index into the non-excluded spare
                # slots (ranked rack-major) before considering data
                # nodes.  Non-spare excludes map to an out-of-range
                # sentinel rank so the order statistics ignore them.
                npr = nodes_per_rack
                spares = self.spares_per_rack
                num_spares = self.topology.num_racks * spares
                offs = exclude_mat % npr
                spare_rank = np.where(
                    offs >= self.data_nodes_per_rack,
                    (exclude_mat // npr) * spares
                    + (offs - self.data_nodes_per_rack),
                    num_spares,
                )
                rank_mat, first = _sorted_with_first(spare_rank)
                excluded_spares = (first & (rank_mat < num_spares)).sum(
                    axis=1
                )
                cand = num_spares - excluded_spares
                has_spare = cand > 0
                if np.any(has_spare):
                    idx = (
                        hashes[has_spare] % cand[has_spare].astype(np.uint64)
                    ).astype(np.int64)
                    ranks = _nth_not_excluded(
                        rank_mat[has_spare], first[has_spare], idx
                    )
                    sub[has_spare] = (
                        (ranks // spares) * npr
                        + self.data_nodes_per_rack
                        + ranks % spares
                    )
                unresolved = ~has_spare
            if np.any(unresolved):
                node_mat, first = _sorted_with_first(exclude_mat[unresolved])
                num_candidates = self.topology.num_nodes - first.sum(axis=1)
                if not np.all(num_candidates > 0):
                    raise PlacementError("no node available for replacement")
                idx = (
                    hashes[unresolved] % num_candidates.astype(np.uint64)
                ).astype(np.int64)
                sub[unresolved] = _nth_not_excluded(node_mat, first, idx)
            out[node_level] = sub
        return out


class _HalfSource:
    """32-bit half-word view of a PCG64 stream, cloned from a state.

    ``Generator.choice(n, w, replace=False)`` and every bounded scalar
    ``integers`` call (bound < 2**32) consume one shared buffered
    stream of 32-bit halves: each 64-bit raw word yields its low half
    first, then its high half, and a leftover half persists across
    Generator calls (``has_uint32``/``uinteger`` in the bit-generator
    state).  This class replays that stream from raw words so draws can
    be emulated in bulk, and computes the exact generator state the
    equivalent sequence of scalar calls would have left behind.
    """

    _CHUNK = 4096

    def __init__(self, state: dict):
        bg = np.random.PCG64()
        bg.state = state
        self._bg = bg
        self._state0 = state
        self._buffered = int(state["has_uint32"])
        if self._buffered:
            self._halves = np.array([state["uinteger"]], dtype=np.uint64)
        else:
            self._halves = np.empty(0, dtype=np.uint64)
        self._words = np.empty(0, dtype=np.uint64)
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` halves (uint64 array), advancing the cursor."""
        end = self.pos + count
        while end > self._halves.size:
            fresh = self._bg.random_raw(max(self._CHUNK, count))
            fresh = np.asarray(fresh, dtype=np.uint64).reshape(-1)
            self._words = np.concatenate([self._words, fresh])
            interleaved = np.empty(fresh.size * 2, dtype=np.uint64)
            interleaved[0::2] = fresh & np.uint64(0xFFFFFFFF)
            interleaved[1::2] = fresh >> np.uint64(32)
            self._halves = np.concatenate([self._halves, interleaved])
        out = self._halves[self.pos:end]
        self.pos = end
        return out

    def rewind(self, count: int) -> None:
        self.pos -= count

    def lemire(self, bound: int) -> int:
        """One scalar bounded draw, exactly numpy's 32-bit Lemire loop."""
        if bound == 1:
            # numpy short-circuits a single-value range without
            # touching the stream (rng == 0 in random_bounded_fill).
            return 0
        threshold = ((1 << 32) - bound) % bound
        while True:
            m = int(self.take(1)[0]) * bound
            leftover = m & 0xFFFFFFFF
            if leftover < threshold:
                continue
            return m >> 32

    def final_state(self) -> dict:
        """Generator state after the consumed halves, scalar-identical.

        A scalar run always leaves ``uinteger`` holding the high half
        of the last raw word it pulled (returned-and-cleared or still
        buffered), so both parities restore bit-identical state dicts.
        """
        new_halves = self.pos - min(self.pos, self._buffered)
        words_used = (new_halves + 1) // 2
        bg = np.random.PCG64()
        bg.state = self._state0
        if words_used:
            bg.advance(words_used)
        state = bg.state
        state["has_uint32"] = new_halves % 2
        if words_used:
            state["uinteger"] = int(self._words[words_used - 1] >> np.uint64(32))
        else:
            state["uinteger"] = int(self._state0["uinteger"])
        return state


class DistinctRackPlacement(PlacementPolicy):
    """One unit per rack, racks chosen uniformly at random (production)."""

    #: Stripes checked scalar-vs-emulated before trusting the
    #: vectorised rng emulation in :meth:`place_many`.
    _PROBE_STRIPES = 2
    #: Below this the scalar loop wins; also skips probe overhead.
    _VECTOR_MIN_STRIPES = 16

    def place_stripe(self, width: int) -> List[int]:
        return self._place_stripe_with(self.rng, width)

    def _place_stripe_with(
        self, rng: np.random.Generator, width: int
    ) -> List[int]:
        if width > self.topology.num_racks:
            raise PlacementError(
                f"stripe of {width} units does not fit {self.topology.num_racks} "
                f"distinct racks"
            )
        racks = rng.choice(self.topology.num_racks, size=width, replace=False)
        nodes = []
        for rack in racks:
            # Stripes live on data nodes only; the spare pool (if any)
            # stays empty until repairs land there.
            offset = int(rng.integers(self.data_nodes_per_rack))
            nodes.append(int(rack) * self.topology.nodes_per_rack + offset)
        return nodes

    def place_many(self, num_stripes: int, width: int) -> np.ndarray:
        """Vectorised placement, rng-stream-identical to the scalar loop.

        One stripe consumes ``3 * width - 1`` bounded 32-bit draws
        (Floyd's rack sample, its in-call Fisher-Yates shuffle, the
        in-rack offsets), so absent Lemire rejections the whole matrix
        is a fixed-shape slice of the half stream and every draw
        vectorises.  Rejections (probability < width * 2**-32 per
        stripe) fall back to exact scalar emulation for the affected
        stripe only.  A per-call probe compares the first stripes
        against the real scalar path; any numpy drift in choice/Lemire
        internals fails the probe and the historical scalar loop runs
        instead -- identical output either way, this is purely the
        setup-path fast lane for the 10k-node scale scenarios.
        """
        if width > self.topology.num_racks:
            raise PlacementError(
                f"stripe of {width} units does not fit {self.topology.num_racks} "
                f"distinct racks"
            )
        if num_stripes < self._VECTOR_MIN_STRIPES or width < 2:
            return super().place_many(num_stripes, width)
        emulated = self._emulate_place_many(num_stripes, width)
        if emulated is None:
            return super().place_many(num_stripes, width)
        return emulated

    def _emulate_stripe(self, source: _HalfSource, width: int) -> List[int]:
        """Exact scalar emulation of one ``place_stripe`` off the stream."""
        num_racks = self.topology.num_racks
        npr = self.topology.nodes_per_rack
        racks: List[int] = []
        for t in range(width):
            v = source.lemire(num_racks - width + 1 + t)
            # Floyd's algorithm: a duplicate draw selects the newly
            # admitted population element instead.
            racks.append(num_racks - width + t if v in racks else v)
        for i in range(width - 1, 0, -1):
            j = source.lemire(i + 1)
            racks[i], racks[j] = racks[j], racks[i]
        return [
            rack * npr + source.lemire(self.data_nodes_per_rack)
            for rack in racks
        ]

    def _emulate_block(
        self, source: _HalfSource, width: int, count: int
    ) -> Tuple[Optional[np.ndarray], int]:
        """Emulate up to ``count`` stripes in one vector pass.

        Assumes no rejections; on detecting one, accepts the clean
        prefix, rewinds the rest, and reports how many stripes landed
        so the caller can scalar-emulate the rejecting stripe.
        """
        num_racks = self.topology.num_racks
        npr = self.topology.nodes_per_rack
        per = 3 * width - 1
        bounds = np.empty(per, dtype=np.uint64)
        bounds[:width] = np.arange(num_racks - width + 1, num_racks + 1)
        bounds[width:2 * width - 1] = np.arange(width, 1, -1)
        bounds[2 * width - 1:] = self.data_nodes_per_rack
        # Single-value ranges (width == num_racks Floyd head, one data
        # node per rack) consume nothing -- numpy short-circuits them.
        consuming = bounds > 1
        num_consuming = int(consuming.sum())
        thresholds = ((np.uint64(1) << np.uint64(32)) - bounds) % bounds
        halves = source.take(count * num_consuming).reshape(
            count, num_consuming
        )
        m = halves * bounds[consuming]
        reject = (m & np.uint64(0xFFFFFFFF)) < thresholds[consuming]
        if reject.any():
            ok = int(np.argmax(reject.any(axis=1)))
        else:
            ok = count
        source.rewind((count - ok) * num_consuming)
        if not ok:
            return None, 0
        vals = np.zeros((ok, per), dtype=np.int64)
        vals[:, consuming] = (m[:ok] >> np.uint64(32)).astype(np.int64)
        chosen = np.empty((ok, width), dtype=np.int64)
        chosen[:, 0] = vals[:, 0]
        for t in range(1, width):
            v = vals[:, t]
            dup = (chosen[:, :t] == v[:, None]).any(axis=1)
            chosen[:, t] = np.where(dup, num_racks - width + t, v)
        rows = np.arange(ok)
        col = width
        for i in range(width - 1, 0, -1):
            j = vals[:, col]
            col += 1
            swapped = chosen[rows, j].copy()
            chosen[rows, j] = chosen[rows, i]
            chosen[rows, i] = swapped
        return chosen * npr + vals[:, 2 * width - 1:], ok

    def _emulate_place_many(
        self, num_stripes: int, width: int
    ) -> Optional[np.ndarray]:
        state0 = self.rng.bit_generator.state
        probe_rng = np.random.Generator(np.random.PCG64())
        probe_rng.bit_generator.state = state0
        probe_n = min(num_stripes, self._PROBE_STRIPES)
        expected = [
            self._place_stripe_with(probe_rng, width) for _ in range(probe_n)
        ]
        source = _HalfSource(state0)
        if [self._emulate_stripe(source, width) for _ in range(probe_n)] \
                != expected:
            return None
        out = np.empty((num_stripes, width), dtype=np.int32)
        out[:probe_n] = expected
        done = probe_n
        while done < num_stripes:
            block, ok = self._emulate_block(
                source, width, num_stripes - done
            )
            if ok:
                out[done:done + ok] = block
                done += ok
            if done < num_stripes:
                # The next stripe hit a Lemire rejection: replay it
                # scalar with the exact rejection loop.
                out[done] = self._emulate_stripe(source, width)
                done += 1
        self.rng.bit_generator.state = source.final_state()
        return out


class DistinctNodePlacement(PlacementPolicy):
    """Distinct machines only; racks may repeat (ablation policy).

    Consistently rack-oblivious: replacement destinations are drawn
    uniformly too (no fresh-rack preference), so recovery transfers can
    stay within a rack when a source happens to share the destination's
    rack.
    """

    def replacement_node(
        self, exclude_nodes: Sequence[int], prefer_new_rack: bool = False
    ) -> int:
        return super().replacement_node(exclude_nodes, prefer_new_rack)

    def replacement_nodes(
        self,
        exclude_rows: np.ndarray,
        extra_excludes: Sequence[int] = (),
        prefer_new_rack: bool = False,
    ) -> Optional[np.ndarray]:
        return super().replacement_nodes(
            exclude_rows, extra_excludes, prefer_new_rack
        )

    def hashed_replacement_nodes(
        self,
        exclude_rows: np.ndarray,
        extra_excludes: Sequence[int],
        uids: np.ndarray,
        ordinal: int,
        entropy: int,
        prefer_new_rack: bool = False,
        commit: bool = True,
    ) -> np.ndarray:
        return super().hashed_replacement_nodes(
            exclude_rows, extra_excludes, uids, ordinal, entropy,
            prefer_new_rack, commit,
        )

    def place_stripe(self, width: int) -> List[int]:
        num_data = self.topology.num_racks * self.data_nodes_per_rack
        if width > num_data:
            raise PlacementError(
                f"stripe of {width} units does not fit {num_data} "
                f"data nodes"
            )
        if not self.spares_per_rack:
            # Historical draw, kept verbatim so spare-free configs
            # replay bit-identical trajectories.
            nodes = self.rng.choice(
                self.topology.num_nodes, size=width, replace=False
            )
            return [int(n) for n in nodes]
        npr = self.topology.nodes_per_rack
        data_ids = np.flatnonzero(
            np.arange(self.topology.num_nodes) % npr
            < self.data_nodes_per_rack
        )
        nodes = self.rng.choice(data_ids, size=width, replace=False)
        return [int(n) for n in nodes]


class DeterministicRoundRobinPlacement(PlacementPolicy):
    """D3-style deterministic round-robin placement (``"d3"``).

    Rack choice is a fixed splitmix64-keyed permutation visited round
    robin: global unit counter ``p`` lands on rack ``perm[p % R]`` with
    in-rack data offset ``offset_perm[rack][(p // R) % D]``.
    Consecutive counter values hit distinct racks, so every stripe of
    ``width <= R`` units stays rack-diverse and per-rack stripe load is
    balanced to within one unit by construction -- no rng draws at all
    (the inherited ``self.rng`` stays untouched, like ``"hashed"``
    destination draws).

    Replacement destinations come from a deterministic rule over a
    maintained per-rack load vector: the least-loaded rack hosting no
    excluded node wins (keyed rank breaks ties), and the in-rack slot
    rotates through a keyed per-rack cursor (over the spare pool when
    one is configured).  With no eligible rack the node-level fallback
    scans least-loaded racks for a free spare first, then any free
    node.  Picks mutate the load vector, so the policy is ``stateful``:
    draws must be applied in trajectory order (the sharded engine runs
    d3 coordinator-driven) and ``hashed_replacement_nodes`` requires
    ``exclude_rows`` to be full stripe rows (true for every call site)
    so the departing holder's rack can be debited.
    """

    stateful = True

    def __init__(
        self, topology: Topology, seed: int = 0, spares_per_rack: int = 0
    ):
        super().__init__(topology, seed, spares_per_rack)
        if isinstance(seed, np.random.SeedSequence):
            key = destination_entropy(seed)
        else:
            key = destination_entropy(np.random.SeedSequence(int(seed)))
        self._key = np.uint64(key & _U64_MASK)
        num_racks = topology.num_racks
        npr = topology.nodes_per_rack
        data = self.data_nodes_per_rack
        self._rack_perm = np.argsort(
            _splitmix64(np.arange(num_racks, dtype=np.uint64) ^ self._key),
            kind="stable",
        ).astype(np.int64)
        #: rank[r] == position of rack r in the keyed visit order; the
        #: deterministic tie-break for equal loads.
        self._rack_rank = np.empty(num_racks, dtype=np.int64)
        self._rack_rank[self._rack_perm] = np.arange(num_racks)
        mix = _splitmix64(
            (np.arange(num_racks * data, dtype=np.uint64)
             + np.uint64(7919)) ^ self._key
        ).reshape(num_racks, data)
        self._offset_perm = np.argsort(mix, axis=1, kind="stable")
        mix_all = _splitmix64(
            (np.arange(num_racks * npr, dtype=np.uint64)
             + np.uint64(104729)) ^ self._key
        ).reshape(num_racks, npr)
        #: Keyed scan order over every slot of a rack (fallback path).
        self._all_order = np.argsort(mix_all, axis=1, kind="stable")
        if spares_per_rack:
            spare_mix = mix_all[:, data:]
            self._dest_order = (
                np.argsort(spare_mix, axis=1, kind="stable") + data
            )
        else:
            self._dest_order = self._all_order
        self._cursor = 0
        self._load = np.zeros(num_racks, dtype=np.int64)
        self._dest_cursor = np.zeros(num_racks, dtype=np.int64)

    # -- placement schedule ------------------------------------------

    def _check_width(self, width: int) -> None:
        if width > self.topology.num_racks:
            raise PlacementError(
                f"stripe of {width} units does not fit {self.topology.num_racks} "
                f"distinct racks"
            )

    def place_stripe(self, width: int) -> List[int]:
        self._check_width(width)
        num_racks = self.topology.num_racks
        p = self._cursor + np.arange(width)
        racks = self._rack_perm[p % num_racks]
        offsets = self._offset_perm[
            racks, (p // num_racks) % self.data_nodes_per_rack
        ]
        self._cursor += width
        self._load += np.bincount(racks, minlength=num_racks)
        return [
            int(n) for n in racks * self.topology.nodes_per_rack + offsets
        ]

    def place_many(self, num_stripes: int, width: int) -> np.ndarray:
        self._check_width(width)
        num_racks = self.topology.num_racks
        p = self._cursor + np.arange(num_stripes * width)
        racks = self._rack_perm[p % num_racks]
        offsets = self._offset_perm[
            racks, (p // num_racks) % self.data_nodes_per_rack
        ]
        self._cursor += num_stripes * width
        self._load += np.bincount(racks, minlength=num_racks)
        nodes = racks * self.topology.nodes_per_rack + offsets
        return nodes.reshape(num_stripes, width).astype(np.int32)

    # -- replacement rule --------------------------------------------

    def _rotate(self, rack: int, exclude) -> Tuple[Optional[int], int]:
        """First non-excluded slot from the rack's rotation cursor.

        Returns ``(node, steps)``; committing advances the cursor by
        ``steps`` so successive repairs spread across the rack.
        """
        npr = self.topology.nodes_per_rack
        order = self._dest_order[rack]
        length = order.shape[0]
        cur = int(self._dest_cursor[rack])
        for step in range(length):
            node = rack * npr + int(order[(cur + step) % length])
            if node not in exclude:
                return node, step + 1
        return None, 0

    def _pick(self, exclude) -> Tuple[int, int, int]:
        """Deterministic destination: ``(node, rack, cursor_steps)``."""
        num_racks = self.topology.num_racks
        npr = self.topology.nodes_per_rack
        # Ranks are a permutation of [0, R), so ``load * R + rank``
        # orders racks by (load, rank) with no ties.
        keys = self._load * num_racks + self._rack_rank
        eligible = keys.copy()
        eligible[[n // npr for n in exclude]] = _EXCLUDED_RACK
        best = int(eligible.argmin())
        if eligible[best] != _EXCLUDED_RACK:
            node, steps = self._rotate(best, exclude)
            return node, best, steps
        ranked = np.argsort(keys).tolist()
        if self.spares_per_rack:
            # Spare-pool fallback rule: a free spare anywhere beats
            # touching a data node.
            for rack in ranked:
                node, steps = self._rotate(rack, exclude)
                if node is not None:
                    return node, rack, steps
        for rack in ranked:
            for offset in self._all_order[rack]:
                node = rack * npr + int(offset)
                if node not in exclude:
                    return node, rack, 0
        raise PlacementError("no node available for replacement")

    def _commit(self, rack: int, steps: int, old_node: Optional[int]) -> None:
        if steps:
            self._dest_cursor[rack] = (
                self._dest_cursor[rack] + steps
            ) % self._dest_order.shape[1]
        self._load[rack] += 1
        if old_node is not None and 0 <= old_node < self.topology.num_nodes:
            self._load[old_node // self.topology.nodes_per_rack] -= 1

    def replacement_node(
        self, exclude_nodes: Sequence[int], prefer_new_rack: bool = True
    ) -> int:
        if isinstance(exclude_nodes, np.ndarray):
            exclude_nodes = exclude_nodes.tolist()
        exclude = {
            int(n)
            for n in exclude_nodes
            if 0 <= n < self.topology.num_nodes
        }
        node, rack, steps = self._pick(exclude)
        self._commit(rack, steps, None)
        return node

    def replacement_nodes(
        self,
        exclude_rows: np.ndarray,
        extra_excludes: Sequence[int] = (),
        prefer_new_rack: bool = True,
    ) -> Optional[np.ndarray]:
        extra = [int(n) for n in extra_excludes]
        return np.array(
            [
                self.replacement_node(list(row) + extra)
                for row in exclude_rows.tolist()
            ],
            dtype=np.int64,
        )

    def hashed_replacement_nodes(
        self,
        exclude_rows: np.ndarray,
        extra_excludes: Sequence[int],
        uids: np.ndarray,
        ordinal: int,
        entropy: int,
        prefer_new_rack: bool = True,
        commit: bool = True,
    ) -> np.ndarray:
        """Deterministic least-loaded picks (hashes are ignored).

        Sequential over units so each commit's load update feeds the
        next pick; ``commit=False`` peeks (for precomputed link-model
        destinations) without touching the load vector or cursors --
        the real draw happens when the repair lands.
        """
        width = exclude_rows.shape[1]
        uids = np.asarray(uids, dtype=np.int64)
        extra = [
            int(n)
            for n in np.asarray(extra_excludes, dtype=np.int64).tolist()
            if 0 <= n < self.topology.num_nodes
        ]
        out = np.empty(exclude_rows.shape[0], dtype=np.int64)
        for i, row in enumerate(exclude_rows.tolist()):
            exclude = {
                int(n) for n in row if 0 <= n < self.topology.num_nodes
            }
            exclude.update(extra)
            node, rack, steps = self._pick(exclude)
            out[i] = node
            if commit:
                old = int(row[int(uids[i]) % width])
                self._commit(rack, steps, old)
        return out

    # -- checkpointing -----------------------------------------------

    def state_dict(self) -> dict:
        return {
            "cursor": int(self._cursor),
            "load": self._load.tolist(),
            "dest_cursor": self._dest_cursor.tolist(),
        }

    def restore(self, state: dict) -> None:
        self._cursor = int(state["cursor"])
        self._load = np.asarray(state["load"], dtype=np.int64)
        self._dest_cursor = np.asarray(state["dest_cursor"], dtype=np.int64)


def make_placement(
    name: str, topology: Topology, seed: int = 0, spares_per_rack: int = 0
) -> PlacementPolicy:
    """Factory: ``"distinct-rack"`` (default), ``"distinct-node"``, ``"d3"``."""
    policies = {
        "distinct-rack": DistinctRackPlacement,
        "distinct-node": DistinctNodePlacement,
        "d3": DeterministicRoundRobinPlacement,
    }
    key = name.strip().lower()
    if key not in policies:
        raise PlacementError(
            f"unknown placement {name!r}; available: {sorted(policies)}"
        )
    return policies[key](topology, seed, spares_per_rack)
