"""Criterion fields, shell-wise supremum/limit estimation, and verdicts.

Each boundedness/compactness statement for the commutators reduces to a real
scalar field on the disk.  With ``phi`` a holomorphic self-map and ``g`` a
holomorphic symbol::

    KI(z)    = |phi#(z)| |g(phi(z)) - g(z)|
    KJ(z)    = (1 - |z|^2) |g'(phi(z)) phi'(z) - g'(z)|
    KJlog(z) = KJ(z) * ln(2 / (1 - |phi(z)|^2))
    Lg(z)    = (1 - |z|^2) |g'(z)| ln(2 / (1 - |z|^2))

(``Lg`` and ``LgLogBoundedness`` share a formula: the first is read as a
boundary *limit* condition, the second as a *sup* condition equivalent to
``J_g`` being bounded on the Bloch space.)  Two fields of the symbol alone
are kinds too: ``|g|`` (the ``H^inf`` hypothesis of T3.2) and the Bloch field
``(1-|z|^2)|g'|`` (the membership read by C4.3).

Each formula is written once, in the table ``_FORMULAS`` keyed by kind
(``LgLogBoundedness`` is ``Lg``'s entry).  A :class:`FieldSet` computes
every field of a pair from its grid samples, and reduces each field over
exponential boundary shells of the relevant limit variable — ``|phi(z)|``
for the phi-boundary criteria, ``|z|`` otherwise, each shell one contiguous
segment — estimating ``sup`` as the grid max and ``limsup`` as the max over
the last three nonempty shells.  When the sup of ``|phi|``, estimated from
the map's own samples (``diskgeom.sup_modulus_estimate``), stays below
``1 - 2**-K``, the limit set ``|phi(z)| -> 1`` is empty and limit
conditions hold vacuously.

A set joins a map side (:class:`MapFields`: ``phi``, ``phi'``, the
``|phi(z)|`` shells and each test function's commutator factor) and a
symbol side (:class:`SymbolFields`: ``g``, ``g'``, the fields of
:data:`SYMBOL_KINDS` and their ``|z|`` reports), and samples only
``g o phi`` and ``g' o phi`` itself.  One cache serves both: a field's
values, first argmax and reports are kept by the side that holds its kind.
Sets joined from shared sides (``FieldSet.from_sides``, as
``harness.run_classification`` and the CLI build them) sample each map
once, each symbol once and each pair's compositions once over a whole
panel.  ``operators`` reads its samples from these classes, so this module
imports nothing from it.

:func:`classify` reduces reports to a :class:`Verdict` per named statement.
:data:`THEOREMS` names every report a statement reads: its hypothesis check,
if any, and its headline report ``(kind, bucket_by)``, which is
:attr:`Verdict.main`.
All sampled maxima are lower bounds of the true suprema, so verdicts are
evidence, not proofs.  Every verdict rule is in :func:`read_tail`: as a sup,
divergence requires a witness beyond the divergence threshold *and* sustained
shell growth; as a boundary limit, compactness requires the limsup estimate
under ``compact_tol`` with a non-increasing tail (or a vacuous boundary);
anything else is Inconclusive.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diskgeom import (
    DiskGrid,
    ShellSegments,
    shell_for_modulus,
    shell_maxima,
    shell_segments,
    sup_modulus_estimate,
    symbol_samples,
    validate_self_map_samples,
)

ONE_SIDED_NOTE = "sampled maxima are lower bounds of true suprema"

#: How many last nonempty shells form a report's tail, for its limsup estimate and read_tail.
TAIL_SHELLS = 3


class CriterionKind(enum.Enum):
    KI = "KI"
    KJ = "KJ"
    KJLOG = "KJlog"
    LG = "Lg"
    LG_LOG_BOUNDEDNESS = "LgLogBoundedness"
    SUP_NORM = "|g|"
    BLOCH = "(1-|z|^2)|g'|"


#: Kinds whose boundary limit runs over |phi(z)| -> 1 rather than |z| -> 1.
PHI_BOUNDARY_KINDS = frozenset(
    {CriterionKind.KI, CriterionKind.KJ, CriterionKind.KJLOG}
)

#: Kinds that are fields of the symbol alone: every kind that reads no map.
SYMBOL_KINDS = frozenset(CriterionKind) - PHI_BOUNDARY_KINDS


class OperatorKind(enum.Enum):
    COMMUTATOR_J = "commutator_j"
    COMMUTATOR_I = "commutator_i"


class Conclusion(enum.Enum):
    BOUNDED = "Bounded"
    NOT_BOUNDED_EVIDENCE = "NotBoundedEvidence"
    COMPACT = "Compact"
    NOT_COMPACT_EVIDENCE = "NotCompactEvidence"
    INCONCLUSIVE = "Inconclusive"


class Membership(enum.Enum):
    IN_B0 = "InB0"
    NOT_IN_B0_EVIDENCE = "NotInB0Evidence"
    INCONCLUSIVE = "Inconclusive"


class PreconditionFailed(RuntimeError):
    """A statement's hypothesis check itself shows divergence evidence."""

    def __init__(self, message: str, report: "CriterionReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds for verdict reduction (all configurable, each finite and positive)."""

    divergence: float = 1e3
    compact_tol: float = 1e-2

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    def to_dict(self) -> dict:
        return {"divergence": self.divergence, "compact_tol": self.compact_tol}


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class CriterionReport:
    """A criterion field sampled over a grid, reduced shell by shell.

    ``shell_sups`` lists (shell index, shell max) for nonempty shells only,
    ordered by shell index.
    """

    kind: CriterionKind
    sup_value: float
    arg_sup: complex
    shell_sups: tuple[tuple[int, float], ...]
    boundary_limsup_estimate: float
    vacuous_boundary: bool
    bucket_by: str = "z"

    def last_shell_sups(self, n: int = TAIL_SHELLS) -> tuple[float, ...]:
        return tuple(s for _, s in self.shell_sups[-n:])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "sup_value": self.sup_value,
            "arg_sup": [self.arg_sup.real, self.arg_sup.imag],
            "shell_sups": [[k, s] for k, s in self.shell_sups],
            "boundary_limsup_estimate": self.boundary_limsup_estimate,
            "vacuous_boundary": self.vacuous_boundary,
            "bucket_by": self.bucket_by,
        }


@dataclass(frozen=True)
class Verdict:
    theorem_id: str
    conclusion: Conclusion
    evidence: tuple[CriterionReport, ...]
    thresholds: Thresholds
    notes: tuple[str, ...] = field(default=(ONE_SIDED_NOTE,))

    @property
    def main(self) -> CriterionReport:
        """The headline report: the evidence whose ``(kind, bucket_by)`` the statement names."""
        spec = THEOREMS[self.theorem_id]
        return next(r for r in self.evidence if (r.kind, r.bucket_by) == (spec.kind, spec.bucket_by))

    def to_dict(self) -> dict:
        return self._to_dict(lambda obj: obj.to_dict())

    def _to_dict(self, dict_of) -> dict:
        """The dict with each evidence report and the thresholds as ``dict_of`` gives them."""
        return {
            "theorem_id": self.theorem_id,
            "conclusion": self.conclusion.value,
            "evidence": [dict_of(r) for r in self.evidence],
            "thresholds": dict_of(self.thresholds),
            "notes": list(self.notes),
        }


# --------------------------------------------------------------------------
# pointwise fields


class MapFields:
    """One map ``phi`` at the points of ``grid``, each sample taken on first use.

    ``grid`` is a :class:`DiskGrid` of any points.  No sample depends on a
    symbol, so one map's samples and ``|phi(z)|`` shells serve every
    symbol paired with it.  Neither does a test function's factor in the
    commutator derivatives (:meth:`factor`), so it too is taken once per map.
    """

    def __init__(self, phi, grid):
        self.phi, self.grid = phi, grid
        # weak keys: a test function's factors go when the function is collected
        self._factors = weakref.WeakKeyDictionary()

    @classmethod
    def validated(cls, fn, grid) -> "MapFields":
        """The side of ``fn`` validated on ``grid`` as a self-map; validation's samples are its :attr:`w`."""
        w = fn(grid.points)
        side = cls(validate_self_map_samples(fn, grid, w), grid)
        side.w = w
        return side

    @cached_property
    def w(self):
        return self.phi(self.grid.points)

    @cached_property
    def one_minus_w(self):
        return 1.0 - np.abs(self.w) ** 2

    @cached_property
    def log_factor(self):
        """``ln(2 / (1 - |phi(z)|^2))``, the factor of ``KJlog`` over ``KJ``."""
        return np.log(2.0 / self.one_minus_w)

    @cached_property
    def dphi(self):
        return self.phi.deriv(self.grid.points)

    @cached_property
    def phi_sharp(self):
        """``|phi#(z)|`` with ``phi#(z) = (1 - |z|^2) / (1 - |phi(z)|^2) * phi'(z)``."""
        return np.abs(self.grid.one_minus / self.one_minus_w * self.dphi)

    def factor(self, kind: OperatorKind, f):
        """``phi' f'(phi)`` (I-type) or ``f(phi)`` (J-type) at the points, taken on first use.

        The factors are keyed by ``kind`` and by the object ``f``, and kept
        only while ``f`` is alive.
        """
        by_kind = self._factors.setdefault(f, {})
        if kind not in by_kind:
            i_type = kind is OperatorKind.COMMUTATOR_I
            by_kind[kind] = self.dphi * f.deriv(self.w) if i_type else f(self.w)
        return by_kind[kind]

    @cached_property
    def phi_shells(self) -> tuple[ShellSegments, bool]:
        """``|phi(z)|`` shell segments, and whether ``|phi(z)| -> 1`` is out of reach on this grid."""
        moduli = np.abs(self.w)
        max_shell = self.grid.max_shell
        vacuous = sup_modulus_estimate(moduli, self.grid) < 1.0 - 2.0 ** (-max_shell)
        return shell_segments(shell_for_modulus(moduli, max_shell), max_shell), vacuous


#: Each kind's formula, read on the side that holds the kind: the pair (a :class:`FieldSet`)
#: for :data:`PHI_BOUNDARY_KINDS`, the symbol (a :class:`SymbolFields`) for
#: :data:`SYMBOL_KINDS`.  A side keeps a field under its formula, so ``LgLogBoundedness``,
#: whose formula is ``Lg``'s, reads ``Lg``'s array and argmax.
_FORMULAS = {
    CriterionKind.KI: lambda pair: pair.map_side.phi_sharp * np.abs(pair.g_jump),
    CriterionKind.KJ: lambda pair: pair.grid.one_minus * np.abs(pair.dg_jump),
    CriterionKind.KJLOG: lambda pair: pair.values(CriterionKind.KJ) * pair.map_side.log_factor,
    CriterionKind.LG: lambda side: side.values(CriterionKind.BLOCH) * np.log(2.0 / side.grid.one_minus),
    CriterionKind.SUP_NORM: lambda side: np.abs(side.g_z),
    CriterionKind.BLOCH: lambda side: side.grid.one_minus * np.abs(side.dg_z),
}
_FORMULAS[CriterionKind.LG_LOG_BOUNDEDNESS] = _FORMULAS[CriterionKind.LG]


class _Fields:
    """The one cache of :data:`_FORMULAS`: each field's values, first argmax and reports,
    computed once on the side that holds the kind (``_holder``), so every set joined
    from that side reads the same objects."""

    def _init_fields(self) -> None:
        self._values, self._argmaxes, self._reports = {}, {}, {}

    def values(self, kind: CriterionKind) -> np.ndarray:
        """The field ``kind`` at the points, from the samples."""
        side, formula = self._holder(kind), _FORMULAS[kind]
        if formula not in side._values:
            side._values[formula] = formula(side)
        return side._values[formula]

    def _argmax(self, kind: CriterionKind) -> int:
        """The index of the field's first maximum, found once per field and shared by its reports."""
        side, formula = self._holder(kind), _FORMULAS[kind]
        if formula not in side._argmaxes:
            side._argmaxes[formula] = int(np.argmax(side.values(kind)))
        return side._argmaxes[formula]

    def _report(self, kind: CriterionKind, bucket_by: str) -> CriterionReport:
        """The field reduced over the shells of the limit variable ``bucket_by``.  A ``|phi|``
        report is the pair's; a ``|z|`` report is kept by the side that holds the kind."""
        side = self if bucket_by == "phi" else self._holder(kind)
        key = (kind, bucket_by)
        if key not in side._reports:
            grid, values, j = side.grid, side.values(kind), side._argmax(kind)
            # the |z| -> 1 limit set is never empty; only |phi| buckets can be vacuous
            segments, vacuous = side.map_side.phi_shells if bucket_by == "phi" else (grid.segments, False)
            shell_sups = shell_maxima(values, segments)
            side._reports[key] = CriterionReport(
                kind=kind,
                sup_value=float(values[j]),
                arg_sup=complex(grid.points[j]),
                shell_sups=shell_sups,
                boundary_limsup_estimate=0.0 if vacuous else max(s for _, s in shell_sups[-TAIL_SHELLS:]),
                vacuous_boundary=vacuous,
                bucket_by=bucket_by,
            )
        return side._reports[key]


class SymbolFields(_Fields):
    """One symbol ``g`` at the points of ``grid``, its fields and their ``|z|`` reports.

    No sample depends on a map, so one symbol's samples serve every map
    paired with it.  The side holds the fields of :data:`SYMBOL_KINDS`, those
    of the symbol alone: each is computed once, with the point where it is
    first maximal, and its ``|z|`` report is one object shared by every map
    paired with the symbol.
    """

    def __init__(self, g, grid):
        self.g, self.grid = g, grid
        self._init_fields()

    @classmethod
    def validated(cls, fn, grid) -> "SymbolFields":
        """The side of ``fn`` validated on ``grid`` as a symbol; validation's samples are its
        :attr:`g_z` and :attr:`dg_z` (``diskgeom.symbol_samples``)."""
        side = cls(fn, grid)
        side.g_z, side.dg_z = symbol_samples(fn, grid)
        return side

    def check_symbol(self, g, grid: DiskGrid) -> None:
        """``ValueError`` unless this side is the samples of this very ``g`` and grid."""
        if self.g is not g or self.grid.points is not grid.points:
            raise ValueError("fields were sampled for another symbol or grid")

    @cached_property
    def g_z(self):
        return self.g(self.grid.points)

    @cached_property
    def dg_z(self):
        return self.g.deriv(self.grid.points)

    def _holder(self, kind: CriterionKind) -> "SymbolFields":
        if kind not in SYMBOL_KINDS:
            raise ValueError(f"unknown field {kind!r}")
        return self

    def report(self, kind: CriterionKind) -> CriterionReport:
        """The field reduced over the ``|z|`` shells."""
        return self._report(kind, "z")


class FieldSet(_Fields):
    """The samples and fields of one pair ``(phi, g)`` on one grid, each taken on first use.

    The pair joins a :class:`MapFields` and a :class:`SymbolFields`: the
    samples of ``phi`` and its ``|phi(z)|`` shells are the map's, the
    samples, fields and ``|z|`` reports of ``g`` alone are the symbol's,
    and only ``g o phi``, ``g' o phi`` and the fields and reports that read
    them are the pair's own.  ``FieldSet(phi, g, grid)`` samples both sides
    for this pair alone; ``FieldSet.from_sides`` shares sides across pairs,
    as ``run_classification`` does for a whole panel.  Each field and each
    report is computed once.  A grid is its points, so a set on any point
    set, such as the one :func:`criterion_value` builds, reads its fields
    and reports there.  Pass a set as ``fields`` to ``commutator_seminorm`` to
    share it across test functions; the map side holds each test function's
    factor, so sets joined from one map side sample a test function once
    for all their symbols.
    """

    def __init__(self, phi, g, grid):
        self._join(MapFields(phi, grid), SymbolFields(g, grid))

    @classmethod
    def from_sides(cls, map_side: MapFields, symbol_side: SymbolFields) -> "FieldSet":
        """The set of one map's and one symbol's samples, shared and not copied."""
        fields = cls.__new__(cls)
        fields._join(map_side, symbol_side)
        return fields

    def _join(self, map_side: MapFields, symbol_side: SymbolFields) -> None:
        self.map_side, self.symbol_side = map_side, symbol_side
        self.phi, self.g, self.grid = map_side.phi, symbol_side.g, map_side.grid
        self._init_fields()

    def check_pair(self, phi, g, grid: DiskGrid) -> None:
        """``ValueError`` unless both sides are the samples of this very ``phi``, ``g`` and grid."""
        if self.phi is not phi or self.grid.points is not grid.points:
            raise ValueError("fields were sampled for another map or grid")
        self.symbol_side.check_symbol(g, grid)

    @cached_property
    def g_jump(self):
        """``g(phi(z)) - g(z)``, the I-type jump."""
        return self.g(self.map_side.w) - self.symbol_side.g_z

    @cached_property
    def dg_jump(self):
        """``g'(phi(z)) phi'(z) - g'(z)``, the J-type jump."""
        return self.g.deriv(self.map_side.w) * self.map_side.dphi - self.symbol_side.dg_z

    def _holder(self, kind: CriterionKind) -> _Fields:
        if kind in SYMBOL_KINDS:
            return self.symbol_side
        if self.phi is None:
            raise ValueError(f"criterion {kind.value} requires a self-map")
        return self

    def report(self, kind: CriterionKind, bucket_by: str | None = None) -> CriterionReport:
        """The field reduced over shells of ``|phi(z)|`` (``"phi"``) or ``|z|`` (``"z"``), by
        default the kind's limit variable: ``|phi(z)|`` for :data:`PHI_BOUNDARY_KINDS`."""
        if bucket_by is None:
            bucket_by = "phi" if kind in PHI_BOUNDARY_KINDS else "z"
        if bucket_by not in ("phi", "z"):
            raise ValueError(f'bucket_by must be "phi" or "z", got {bucket_by!r}')
        return self._report(kind, bucket_by)


def criterion_value(kind: CriterionKind, phi, g, z):
    """Pointwise criterion value; vectorized over ``z`` arrays."""
    out = FieldSet(phi, g, DiskGrid(np.asarray(z, dtype=complex))).values(kind)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def evaluate_criterion(kind: CriterionKind, phi, g, grid: DiskGrid) -> CriterionReport:
    """Sample the field over the grid and reduce it over shells of the kind's limit variable
    (:meth:`FieldSet.report`)."""
    return FieldSet(phi, g, grid).report(kind)


# --------------------------------------------------------------------------
# trend detection and verdict reduction


def read_tail(report: CriterionReport, th: Thresholds, *, limit: bool) -> Conclusion:
    """The report's tail, its last :data:`TAIL_SHELLS` shell sups, read as a sup or, with
    ``limit``, as a boundary limit.

    Sup: NotBoundedEvidence above ``divergence`` with growth, Bounded at most ``divergence``
    without it.  Growth is a full tail whose two steps exceed ``1e-9 (1 + last)``, the second
    at least 0.9 times the first: a log-divergent field's steps keep pace (ratio -> 1), a
    convergent one's shrink (about 1/2 on dyadic shells).  Limit: Compact on a vacuous
    boundary, NotCompactEvidence for a tail all at least ``compact_tol``, Compact for a
    limsup estimate under ``compact_tol`` with a tail non-increasing within ``1e-12``.
    Anything else is Inconclusive.
    """
    tail = report.last_shell_sups()
    if limit:
        if report.vacuous_boundary:
            return Conclusion.COMPACT
        if tail and min(tail) >= th.compact_tol:
            return Conclusion.NOT_COMPACT_EVIDENCE
        non_increasing = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        if report.boundary_limsup_estimate < th.compact_tol and non_increasing:
            return Conclusion.COMPACT
        return Conclusion.INCONCLUSIVE
    growth = False
    if len(tail) == TAIL_SHELLS:
        s0, s1, s2 = tail
        d1, d2, floor = s1 - s0, s2 - s1, 1e-9 * (1.0 + s2)
        growth = d1 > floor and d2 > floor and d2 >= 0.9 * d1
    if report.sup_value > th.divergence and growth:
        return Conclusion.NOT_BOUNDED_EVIDENCE
    if report.sup_value <= th.divergence and not growth:
        return Conclusion.BOUNDED
    return Conclusion.INCONCLUSIVE


# --------------------------------------------------------------------------
# statement registry


@dataclass(frozen=True)
class TheoremSpec:
    """How one named statement reduces to criterion reports.

    ``(kind, bucket_by)`` names the headline report; ``precheck`` names the
    field of a hypothesis check, read as a sup on ``|z|`` shells.
    """

    theorem_id: str
    kind: CriterionKind
    mode: str  # "bounded" | "limit" | "bounded+limit" | "membership"
    bucket_by: str  # limit-variable shells: "phi" or "z"
    precheck: CriterionKind | None
    summary: str

    @property
    def needs_phi(self) -> bool:
        return self.kind in PHI_BOUNDARY_KINDS


THEOREMS: dict[str, TheoremSpec] = {
    t.theorem_id: t
    for t in (
        TheoremSpec("T3.1", CriterionKind.KI, "bounded", "phi", None,
                    "commutator with the I-type operator bounded on Bloch"),
        TheoremSpec("T3.2", CriterionKind.KI, "limit", "phi", CriterionKind.SUP_NORM,
                    "essential commutation with the I-type operator on Bloch"),
        TheoremSpec("C3.3", CriterionKind.KI, "limit", "phi", None,
                    "I-type commutator compact from H-infinity to Bloch"),
        TheoremSpec("C3.4", CriterionKind.KI, "limit", "z", None,
                    "I-type commutator into the little Bloch space"),
        TheoremSpec("T4.1a", CriterionKind.KJ, "bounded", "phi", None,
                    "J-type commutator bounded from H-infinity to Bloch"),
        TheoremSpec("T4.1b", CriterionKind.KJ, "bounded+limit", "phi", None,
                    "J-type commutator compact from H-infinity to Bloch"),
        TheoremSpec("C4.2", CriterionKind.KJ, "limit", "z", None,
                    "J-type commutator into the little Bloch space"),
        TheoremSpec("C4.3", CriterionKind.BLOCH, "membership", "z", None,
                    "little Bloch symbol commutes essentially with every map"),
        TheoremSpec("P4.6", CriterionKind.KJLOG, "bounded", "phi", None,
                    "J-type commutator bounded on Bloch"),
        TheoremSpec("P4.7", CriterionKind.KJLOG, "bounded+limit", "phi", None,
                    "J-type commutator compact on Bloch"),
        TheoremSpec("T4.9", CriterionKind.LG, "limit", "z", CriterionKind.LG_LOG_BOUNDEDNESS,
                    "J-type essential commutation for every self-map"),
    )
}

#: What a hypothesis check that shows divergence says, by its field.
_PRECHECK_FAILURE = {
    CriterionKind.SUP_NORM: "symbol is not sup-norm bounded",
    CriterionKind.LG_LOG_BOUNDEDNESS: "J-type operator is not bounded on Bloch",
}


def little_bloch_membership(
    g,
    grid: DiskGrid,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    fields: SymbolFields | None = None,
) -> Membership:
    """Classify the trend of ``(1-|z|^2)|g'(z)|`` toward the boundary.

    ``fields`` holds the samples of ``g`` on ``grid``; without it ``g`` is
    sampled here.
    """
    fields = SymbolFields(g, grid) if fields is None else fields
    fields.check_symbol(g, grid)
    return _MEMBERSHIP[read_tail(fields.report(CriterionKind.BLOCH), thresholds, limit=True)]


#: Membership in B0 is the compactness tail rule read on the Bloch field.
_MEMBERSHIP = {
    Conclusion.COMPACT: Membership.IN_B0,
    Conclusion.NOT_COMPACT_EVIDENCE: Membership.NOT_IN_B0_EVIDENCE,
    Conclusion.INCONCLUSIVE: Membership.INCONCLUSIVE,
}


def classify(
    theorem_id: str,
    phi,
    g,
    grid: DiskGrid,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    fields: FieldSet | None = None,
) -> Verdict:
    """Reduce one named statement to a verdict for (phi, g), reading their ``fields`` if given."""
    try:
        spec = THEOREMS[theorem_id]
    except KeyError:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; expected one of {sorted(THEOREMS)}"
        ) from None
    if spec.needs_phi and phi is None:
        raise ValueError(f"{theorem_id} requires a self-map")
    fields = FieldSet(phi, g, grid) if fields is None else fields
    fields.check_pair(phi, g, grid)

    notes = [ONE_SIDED_NOTE]
    evidence: list[CriterionReport] = []
    if spec.precheck is not None:
        report = fields.report(spec.precheck, "z")
        if read_tail(report, thresholds, limit=False) is Conclusion.NOT_BOUNDED_EVIDENCE:
            raise PreconditionFailed(
                f"hypothesis check failed: {_PRECHECK_FAILURE[spec.precheck]}", report
            )
        evidence.append(report)
    main = fields.report(spec.kind, spec.bucket_by)
    evidence.append(main)

    if spec.mode == "membership":  # sufficiency only: membership in B0 alone concludes
        conclusion = read_tail(main, thresholds, limit=True)
        if conclusion is Conclusion.COMPACT:
            notes.append("symbol trends into the little Bloch space")
        else:
            notes.append("sufficiency-only statement: membership " + _MEMBERSHIP[conclusion].value)
            conclusion = Conclusion.INCONCLUSIVE
        return Verdict(theorem_id, conclusion, tuple(evidence), thresholds, tuple(notes))

    # Divergence of the sup happens toward |z| -> 1 (the field is continuous
    # on compact subsets), so growth is always detected on |z| shells even
    # when the limit variable is |phi(z)|.
    if spec.bucket_by == "z":
        growth_report = main
    else:
        growth_report = fields.report(spec.kind, "z")
        evidence.append(growth_report)
    bounded = read_tail(growth_report, thresholds, limit=False)
    if spec.mode == "bounded":
        conclusion = bounded
    elif bounded is Conclusion.NOT_BOUNDED_EVIDENCE:
        conclusion = Conclusion.NOT_COMPACT_EVIDENCE
        if spec.mode == "limit":
            notes.append("sup diverges, so the limit condition cannot hold")
    else:
        conclusion = read_tail(main, thresholds, limit=True)
        # bounded+limit: compactness needs boundedness too
        if spec.mode == "bounded+limit" and bounded is not Conclusion.BOUNDED:
            conclusion = Conclusion.INCONCLUSIVE if conclusion is Conclusion.COMPACT else conclusion
    if main.vacuous_boundary and spec.mode != "bounded":
        notes.append("boundary limit set of |phi(z)| -> 1 is empty at this resolution")
    return Verdict(theorem_id, conclusion, tuple(evidence), thresholds, tuple(notes))
