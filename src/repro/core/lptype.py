"""The LP-type problem abstraction (Section 2.1 and Section 3 of the paper).

An LP-type problem is a pair ``(S, f)`` where ``S`` is a finite set of
constraints and ``f`` maps subsets of ``S`` to a totally ordered range and
satisfies *monotonicity* and *locality*.  The paper restricts attention to
the class satisfying properties (P1)/(P2): each constraint corresponds to a
subset of the range ``R`` (the feasible points satisfying it) and ``f(A)`` is
the minimal element of the intersection of the constraints in ``A``.

For that class, the primitive operations Algorithm 1 needs are

* ``solve_subset``: compute ``f(A)`` (value, witness point, and a small
  basis) for an explicitly given subset ``A``;
* ``violates``: decide whether a constraint is violated by the witness point
  of a basis, i.e. whether ``f(B + {S}) > f(B)``.

Concrete problems (linear programming, hard-margin SVM, minimum enclosing
ball) implement :class:`LPTypeProblem`; the sequential, streaming,
coordinator and MPC drivers only ever talk to this interface.  What an
instance is made of is declared once per family by the class attribute
``family`` (a :class:`~repro.problems.family.ProblemFamily`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Optional, Sequence

import numpy as np

from .. import kernels
from .exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..problems.family import ProblemFamily

__all__ = [
    "BasisResult",
    "ConstraintPack",
    "LPTypeProblem",
    "as_index_array",
    "working_set_solve",
]


def as_index_array(indices: Iterable[int]) -> np.ndarray:
    """Coerce any iterable of constraint indices to a 1-d int array.

    Integer ndarrays pass through untouched (no copy, no Python-list round
    trip — this runs on every oracle call, with arrays of up to ``n``
    entries); other array-likes (lists, ranges) convert directly, and only
    opaque iterables (generators, sets) take the materialising fallback.
    """
    if isinstance(indices, np.ndarray):
        if indices.ndim != 1:
            indices = indices.reshape(-1)
        if indices.dtype == np.int64 or indices.dtype == np.intp:
            return indices
        return indices.astype(int, copy=False)
    try:
        arr = np.asarray(indices, dtype=int)
    except (TypeError, ValueError):
        arr = np.asarray(list(indices), dtype=int)
    return arr.reshape(-1)


def _as_selector(
    indices: Optional[Iterable[int]], num_constraints: int
) -> None | slice | np.ndarray:
    """Normalise an index argument to a kernel-layer selector.

    ``None`` means all rows.  A contiguous ascending range becomes a
    ``slice`` — the kernels then take views instead of gather copies (the
    coordinator/MPC site partitions and the full-index arrays of the
    sequential substrate are all contiguous).  Anything else stays a fancy
    index array.  The strict-ascent verification is one cheap boolean pass,
    entered only when the endpoints already match a contiguous range.
    """
    if indices is None:
        return None
    idx = as_index_array(indices)
    size = idx.size
    if size == 0:
        return idx
    first = int(idx[0])
    last = int(idx[-1])
    if last - first == size - 1 and (size <= 2 or bool((idx[1:] > idx[:-1]).all())):
        if first == 0 and size == num_constraints:
            return None
        return slice(first, last + 1)
    return idx


#: Sentinel distinguishing "pack not built yet" from "problem has no pack".
_PACK_UNSET = object()


@dataclass(frozen=True)
class BasisResult:
    """Result of solving an LP-type problem on a subset of constraints.

    Attributes
    ----------
    indices:
        Indices (into the full constraint set) of a basis of the subset:
        a small sub-subset with the same ``f`` value.  At most
        ``combinatorial_dimension`` entries.
    value:
        ``f`` of the subset.  Must support ``<`` / ``==`` comparisons with
        other values produced by the same problem (totally ordered range).
    witness:
        The optimal point realising ``value`` (an ``ndarray`` for the
        geometric problems).  Violation tests are performed against the
        witness.
    subset_size:
        Number of constraints that were solved over (for bookkeeping).
    """

    indices: tuple[int, ...]
    value: Any
    witness: Any
    subset_size: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


class ConstraintPack:
    """The packed constraint data plane: one contiguous float64 view per problem.

    Every constraint family in the (P1)/(P2) class tested here reduces its
    violation test to an affine margin against an encoded witness vector::

        margin_j = rows[j] . w + offset - rhs[j]

    where ``(w, offset)`` come from :meth:`LPTypeProblem.encode_witness`.
    With ``sense = +1`` constraint ``j`` is violated iff ``margin_j >
    limit[j]`` (upper-bound constraints such as ``a.x <= b``); with ``sense =
    -1`` iff ``margin_j < -limit[j]`` (lower-bound constraints such as
    ``g.x >= h``).  ``limit`` carries the per-constraint violation tolerance,
    precomputed once, so the hot loop is a single matmul plus a comparison —
    no per-constraint Python objects, no per-call scale recomputation.
    """

    __slots__ = ("rows", "rhs", "limit", "sense", "_kernel_cache")

    def __init__(
        self,
        rows: np.ndarray,
        rhs: np.ndarray,
        limit: np.ndarray | float,
        sense: int = 1,
    ) -> None:
        self.rows = np.ascontiguousarray(rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be 2-d, got {self.rows.ndim}-d")
        self.rhs = np.ascontiguousarray(
            np.asarray(rhs, dtype=np.float64).reshape(-1)
        )
        if self.rhs.size != self.rows.shape[0]:
            raise ValueError(
                f"{self.rows.shape[0]} rows but {self.rhs.size} right-hand sides"
            )
        limit_arr = np.asarray(limit, dtype=np.float64)
        if limit_arr.ndim == 0:
            limit_arr = np.full(self.rhs.size, float(limit_arr))
        self.limit = np.ascontiguousarray(limit_arr.reshape(-1))
        if self.limit.size != self.rhs.size:
            raise ValueError("limit must be a scalar or match the constraint count")
        if sense not in (1, -1):
            raise ValueError(f"sense must be +1 or -1, got {sense}")
        self.sense = int(sense)
        self._kernel_cache: Optional[dict] = None

    @property
    def num_constraints(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_coefficients(self) -> int:
        return int(self.rows.shape[1])

    def kernel_cache(self) -> dict:
        """Scratch dict for backend-owned per-pack precomputations.

        The ``fused`` backend stashes its float32 mirrors here so they are
        built once per pack, not once per sweep.  The cache is keyed by the
        backend and carries derived data only — the pack arrays themselves
        stay the single source of truth.
        """
        if self._kernel_cache is None:
            self._kernel_cache = {}
        return self._kernel_cache

    # -- export / import hooks (the zero-copy data plane) ---------------- #

    def __getstate__(self) -> tuple:
        # Only the four canonical arrays travel: the kernel cache is derived
        # data (fp32 mirrors, magnitude terms) every process rebuilds
        # locally — shipping it would double the wire size for nothing.
        return (self.rows, self.rhs, self.limit, self.sense)

    def __setstate__(self, state: tuple) -> None:
        # Imported arrays are installed verbatim — no ``ascontiguousarray``
        # re-validation pass.  This keeps shared-memory imports zero-copy:
        # the transport layer hands in read-only views over shared pages,
        # and a defensive copy here would silently privatise them again.
        rows, rhs, limit, sense = state
        self.rows = rows
        self.rhs = rhs
        self.limit = limit
        self.sense = sense
        self._kernel_cache = None

    def scores(
        self, encoded: tuple[np.ndarray, float], indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Violation scores over ``indices``: positive iff violated.

        The magnitude is the tolerance-adjusted slack, so sorting by score
        ranks constraints by how badly the witness breaks them.  Always
        evaluated in full float64 (working-set growth ranks on these scores,
        so their order must not depend on the backend's precision mode).
        """
        sel = _as_selector(indices, self.num_constraints)
        return kernels.active_backend().scores(self, encoded, sel)

    def mask(
        self, encoded: tuple[np.ndarray, float], indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Boolean violation mask over ``indices`` for one encoded witness."""
        return self.sweep(encoded, indices, need_total=False).mask

    def sweep(
        self,
        encoded: tuple[np.ndarray, float],
        indices: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        need_total: bool = True,
        log_weights: Optional[np.ndarray] = None,
        log_shift: float = 0.0,
    ) -> "kernels.SweepStats":
        """One fused pass: violation mask, count, and weight sums.

        ``weights`` must be aligned with ``indices`` (or with all rows when
        ``indices`` is ``None``).  ``log_weights``/``log_shift`` is the
        log-space alternative (effective weight ``exp(lw - shift)``) that
        lets blocked backends exponentiate inside the sweep.  This is the
        hot success-test primitive: backends evaluate it without
        materialising full margin temporaries.
        """
        sel = _as_selector(indices, self.num_constraints)
        return kernels.active_backend().sweep(
            self,
            encoded,
            sel,
            weights=weights,
            need_total=need_total,
            log_weights=log_weights,
            log_shift=log_shift,
        )

    def count_matrix(
        self,
        encodings: Sequence[tuple[np.ndarray, float]],
        indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-constraint count of violated witnesses, one matrix product."""
        sel = _as_selector(indices, self.num_constraints)
        if not encodings:
            n = kernels.selector_length(sel, self.num_constraints)
            return np.zeros(n, dtype=np.int64)
        vecs = np.stack([np.asarray(v, dtype=np.float64) for v, _ in encodings], axis=1)
        offsets = np.asarray([float(o) for _, o in encodings], dtype=np.float64)
        return kernels.active_backend().count_matrix(self, vecs, offsets, sel)


class LPTypeProblem(abc.ABC):
    """Interface every concrete LP-type problem implements.

    The constraint set is indexed ``0 .. num_constraints - 1``; drivers refer
    to constraints exclusively through these indices so that the problem
    object itself can live on a single machine.  Models that distribute the
    constraints ship them as packed rows
    (:func:`repro.fabric.payload.constraint_rows`), whose width per row
    :meth:`payload_num_coefficients` gives.
    """

    #: The family descriptor (wire codec, edits, ingestion, :meth:`restrict`).
    family: ClassVar[Optional["ProblemFamily"]] = None

    # ------------------------------------------------------------------ #
    # Static problem metadata
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def num_constraints(self) -> int:
        """``n``, the number of constraints."""

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """``d``, the ambient dimension of the problem."""

    @property
    def combinatorial_dimension(self) -> int:
        """``nu``: maximum basis cardinality.  ``d + 1`` for LP/SVM/MEB."""
        return self.dimension + 1

    @property
    def vc_dimension(self) -> int:
        """``lambda``: VC dimension of the constraint set system (``d + 1``)."""
        return self.dimension + 1

    def bit_size(self) -> int:
        """Bits needed to describe one constraint (``bit(S)`` in the paper).

        Default: ``(d + 1)`` coefficients at 64 bits each; concrete problems
        override when their constraints carry a different payload.
        """
        return (self.dimension + 1) * 64

    # ------------------------------------------------------------------ #
    # Core primitives
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def solve_subset(self, indices: Sequence[int]) -> BasisResult:
        """Compute ``f`` on the subset given by ``indices``.

        ``indices`` may be empty, in which case the problem's "unconstrained"
        optimum (e.g. the corner of the bounding box for LP) is returned with
        an empty basis.
        """

    @abc.abstractmethod
    def violates(self, witness: Any, index: int) -> bool:
        """Return ``True`` iff constraint ``index`` is violated at ``witness``.

        For problems in the (P1)/(P2) class this is exactly the test
        ``f(B + {index}) > f(B)`` where ``witness`` realises ``f(B)``.
        """

    # ------------------------------------------------------------------ #
    # The packed data plane
    # ------------------------------------------------------------------ #

    def constraint_pack(self) -> Optional[ConstraintPack]:
        """The packed constraint arrays, built once and cached on the problem.

        Returns ``None`` for problems that do not provide a packed form (the
        batch methods then fall back to scalar :meth:`violates` loops).
        """
        pack = getattr(self, "_constraint_pack_cache", _PACK_UNSET)
        if pack is _PACK_UNSET:
            pack = self._build_constraint_pack()
            self._constraint_pack_cache = pack
        return pack

    def _build_constraint_pack(self) -> Optional[ConstraintPack]:
        """Build the :class:`ConstraintPack` for this problem (``None`` = no pack)."""
        return None

    def prepare_for_export(self) -> None:
        """Materialise derived constraint-plane arrays before zero-copy export.

        The shared-memory data plane (:mod:`repro.fabric.shm`) pickles the
        problem once and spills its large arrays into a shared segment.
        Anything still lazy at that point — above all the constraint pack —
        would instead be rebuilt privately by *every* worker, re-introducing
        the per-worker memory blow-up the export exists to remove.  The
        default builds the pack (which also fixes family-side auxiliaries
        such as MEB's centring shift, so witness encoding agrees across
        processes); problems with additional lazy heavy state override and
        extend this.
        """
        self.constraint_pack()

    def encode_witness(self, witness: Any) -> Optional[tuple[np.ndarray, float]]:
        """Encode ``witness`` as the ``(vector, offset)`` pair the pack consumes.

        ``None`` (for a ``None`` witness, or for problems without a pack)
        routes the batch methods to their scalar fallback.
        """
        return None

    # ------------------------------------------------------------------ #
    # Derived helpers (pack-backed; scalar fallback via ``violates``)
    # ------------------------------------------------------------------ #

    def violation_mask(
        self, witness: Any, indices: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Boolean mask over ``indices``: entry ``j`` is ``True`` iff
        ``indices[j]`` is violated at ``witness``.

        ``indices=None`` means the full constraint set (without building an
        index array).  Evaluated against the packed data plane when the
        problem provides one (a single fused sweep — this is the hot path of
        every driver's success test); otherwise falls back to scalar
        :meth:`violates` calls.
        """
        return self.violation_sweep(witness, indices, need_total=False).mask

    def violation_sweep(
        self,
        witness: Any,
        indices: Optional[Iterable[int]] = None,
        weights: Optional[np.ndarray] = None,
        need_total: bool = True,
        log_weights: Optional[np.ndarray] = None,
        log_shift: float = 0.0,
    ) -> "kernels.SweepStats":
        """One fused violation sweep: mask, violator count, and weight sums.

        The kernel-layer success-test primitive (``sweep_scores_mask_accum``):
        one blocked pass over the selected constraints produces the violation
        mask, the violator count, and the violated-weight sum (plus the total
        weight unless ``need_total=False``), replacing the historical
        mask-then-index-then-sum sequence.  ``weights`` must align with
        ``indices``; ``log_weights``/``log_shift`` is the log-space
        alternative (effective weight ``exp(lw - shift)``), which blocked
        backends exponentiate inside the sweep.  Problems without a packed
        data plane fall back to the scalar :meth:`violates` loop plus NumPy
        reductions.
        """
        idx = None if indices is None else as_index_array(indices)
        size = self.num_constraints if idx is None else int(idx.size)
        if size == 0 or witness is None:
            mask = np.zeros(size, dtype=bool)
            total = None
            if need_total:
                if weights is None and log_weights is None:
                    total = float(size)
                elif weights is None:
                    total = float(np.exp(np.asarray(log_weights) - log_shift).sum())
                else:
                    total = float(np.asarray(weights, dtype=float).sum())
            return kernels.SweepStats(
                mask=mask, count=0, violated_weight=0.0, total_weight=total
            )
        pack = self.constraint_pack()
        if pack is not None:
            encoded = self.encode_witness(witness)
            if encoded is not None:
                return pack.sweep(
                    encoded,
                    idx,
                    weights=weights,
                    need_total=need_total,
                    log_weights=log_weights,
                    log_shift=log_shift,
                )
        if log_weights is not None and weights is None:
            weights = np.exp(np.asarray(log_weights, dtype=float) - log_shift)
        if idx is None:
            idx = self.all_indices()
        mask = np.fromiter(
            (self.violates(witness, int(i)) for i in idx), dtype=bool, count=idx.size
        )
        count = int(np.count_nonzero(mask))
        if weights is None:
            violated = float(count)
            total = float(mask.size) if need_total else None
        else:
            w = np.asarray(weights, dtype=float)
            violated = float(w[mask].sum())
            total = float(w.sum()) if need_total else None
        return kernels.SweepStats(
            mask=mask, count=count, violated_weight=violated, total_weight=total
        )

    def violation_count_matrix(
        self, witnesses: Sequence[Any], indices: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """For each of ``indices``, the number of ``witnesses`` it violates.

        This is the implicit-weight exponent ``a_i`` of Section 3.2: the
        streaming and MPC substrates derive the weight of constraint ``i``
        as ``boost ** a_i`` from the stored bases of successful iterations.
        With a packed data plane all witnesses are evaluated in one matrix
        product; the fallback stacks :meth:`violation_mask` calls.
        """
        idx = None if indices is None else as_index_array(indices)
        size = self.num_constraints if idx is None else int(idx.size)
        present = [w for w in witnesses if w is not None]
        if not present or size == 0:
            return np.zeros(size, dtype=np.int64)
        pack = self.constraint_pack()
        if pack is not None:
            encodings = [self.encode_witness(w) for w in present]
            if all(e is not None for e in encodings):
                return pack.count_matrix(encodings, idx)
        counts = np.zeros(size, dtype=np.int64)
        for witness in present:
            counts += self.violation_mask(witness, idx)
        return counts

    def violating_indices(self, witness: Any, indices: Iterable[int]) -> np.ndarray:
        """Indices among ``indices`` violated at ``witness`` (ascending order)."""
        idx = as_index_array(indices)
        if idx.size == 0:
            return np.empty(0, dtype=int)
        return np.sort(idx[self.violation_mask(witness, idx)])

    def all_indices(self) -> np.ndarray:
        """``[0, 1, ..., n-1]`` as an array."""
        return np.arange(self.num_constraints, dtype=int)

    def solve(self) -> BasisResult:
        """Solve over the full constraint set (ground truth for tests)."""
        return self.solve_subset(self.all_indices())

    def payload_num_coefficients(self) -> int:
        """Number of real coefficients in one constraint payload."""
        return self.dimension + 1

    def restrict(self, indices: Sequence[int]) -> "LPTypeProblem":
        """A new instance of the same family over only the given constraints."""
        if self.family is None:
            raise NotImplementedError(f"{type(self).__name__} has no ProblemFamily")
        return self.family.restrict(self, indices)


# ---------------------------------------------------------------------- #
# Working-set subset solving (the packed-plane fast path of solve_subset)
# ---------------------------------------------------------------------- #

#: Subsets at or below this many constraints are handed to the backend solver
#: directly; larger subsets go through the working-set loop.
DIRECT_SOLVE_LIMIT = 128

#: Hard cap on working-set rounds before falling back to a direct solve (the
#: loop provably terminates — f strictly increases every round — but the cap
#: bounds the worst case on adversarial numerics).
_MAX_WORKING_ROUNDS = 64


def working_set_solve(
    problem: "LPTypeProblem",
    indices: Sequence[int] | np.ndarray,
    direct_solve: Callable[[np.ndarray], BasisResult],
    probe_solve: Optional[Callable[[np.ndarray], BasisResult]] = None,
    direct_limit: int = DIRECT_SOLVE_LIMIT,
) -> BasisResult:
    """Solve ``f`` on a large subset via an exact working-set (active-set) loop.

    Rather than handing all of ``indices`` to the backend solver, solve a
    small working set ``W``, test the resulting witness against the whole
    subset with one packed-plane sweep, and grow ``W`` by the worst violators
    until none remain.  The result is *exact* by the LP-type axioms: when the
    witness of ``f(W)`` violates no constraint of ``A`` and ``W`` is a subset
    of ``A``, monotonicity gives ``f(W) <= f(A)`` while feasibility of the
    witness gives ``f(A) <= f(W)`` — so ``f(A) = f(W)`` and any basis of
    ``W`` is a basis of ``A``.  (An infeasible ``f(W)`` is the top element,
    which forces ``f(A) = f(W)`` directly.)

    ``probe_solve``, when given, is a cheaper solver producing *some* optimal
    witness of ``W`` (e.g. skipping lexicographic tie-breaking).  Growth
    rounds use the probe; once the probe's witness is feasible for all of
    ``A``, the exact ``direct_solve`` runs on the final working set and its
    witness is re-verified — if tie-breaking moved the optimum onto a
    violated region, the loop simply continues.  Termination is unaffected
    because ``W`` strictly grows with violated constraints either way.

    This turns one backend solve over ``|A|`` constraints into a handful of
    solves over ``O(nu)`` constraints plus cheap vectorised violation sweeps —
    the dominant cost of Algorithm 1's basis computations on eps-net samples.
    The working set doubles each round, so the round count is logarithmic in
    the size of the active set.

    The loop is fully deterministic (evenly spaced initial set, violators
    ranked by violation score), so repeated runs with one seed stay
    bit-identical.
    """
    idx = as_index_array(indices)
    if idx.size <= max(direct_limit, 1):
        return direct_solve(idx)

    nu = problem.combinatorial_dimension
    pack = problem.constraint_pack()
    take = int(min(idx.size, max(4 * nu, 16)))
    work = np.unique(idx[np.linspace(0, idx.size - 1, take).astype(int)])
    probing = probe_solve is not None

    def violators_of(basis: BasisResult) -> np.ndarray:
        """Positions into ``idx`` of the violated constraints, worst first."""
        encoded = problem.encode_witness(basis.witness) if pack is not None else None
        if encoded is not None:
            scores = pack.scores(encoded, idx)
            violators = np.flatnonzero(scores > 0.0)
            # Worst offenders first (argsort on scores is deterministic).
            return violators[np.argsort(scores[violators])[::-1]]
        return np.flatnonzero(problem.violation_mask(basis.witness, idx))

    for _ in range(_MAX_WORKING_ROUNDS):
        try:
            basis = (probe_solve if probing else direct_solve)(work)
        except SolverError:
            # Tiny working sets can be numerically harder for the backend
            # than the full subset (ill-conditioned extreme-scale inputs);
            # fall back to the pre-working-set behaviour.
            return direct_solve(idx)
        violators = violators_of(basis)
        if violators.size == 0:
            if probing:
                # The probe's optimum is settled; run the exact solver once
                # and re-verify its (possibly different) witness.
                probing = False
                try:
                    basis = direct_solve(work)
                except SolverError:
                    return direct_solve(idx)
                violators = violators_of(basis)
            if violators.size == 0:
                return BasisResult(
                    indices=basis.indices,
                    value=basis.value,
                    witness=basis.witness,
                    subset_size=int(idx.size),
                )
        grow = max(2 * nu, work.size)
        fresh = idx[violators[: min(violators.size, grow)]]
        grown = np.unique(np.concatenate([work, fresh]))
        if grown.size == work.size or grown.size >= idx.size:
            # No progress (the backend's witness violates constraints already
            # in the working set beyond tolerance) or the working set covers
            # the subset: hand the whole thing to the backend.
            break
        work = grown
    return direct_solve(idx)
