"""Test surfaces and the 16-equation linear system for the degree-2 class.

Each of the ten 2-parameter families of stable curves is shipped as a JSON
fixture: an ambient intersection lattice (named generators plus a symmetric
rational Gram matrix), the restriction of each divisor generator to the base
of the family, the polynomial count of fibers meeting the degree-d locus
(the right-hand side), and a free-text provenance note.  Keeping the lattice
data in versioned files rather than in code makes the transcription — the
main error risk — auditable entry by entry.  The files are read once per
process, and the report checksums hash those bytes.  The surfaces, all 16
rows and the rows' gated matrix are built once per distinct fixture content
and ``m21`` push-forward table and class formula; a malformed fixture, or
one whose ``family`` is not the number in its file name, raises ValueError
naming it.  ``gated_matrix`` is the one place that hands out that matrix:
for the loaded rows themselves, and a freshly gated one for any others.
The surfaces and rows are NamedTuples; derive an edited surface with
``_replace``.

Pairing restricted divisor monomials in the lattice turns each surface into
a linear functional on class vectors; together with the three marking-swap
symmetry rows and the three push-forward rows this gives the full system of
16 equations whose solution is the degree-d class.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache, lru_cache
from operator import mul
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import m21
from .chow import _SWAP, BASIS_MONOMIALS, BASIS_NAMES, GENERATORS, MONOMIALS, Monomial, TautClass2, mono
from .linalg import GatedMatrix
from .polyq import D, PolyQ, Scalar, _echo, _require_type, clear_denominators, parse_json, parse_rational

FIXTURE_NAMES = tuple(f"family{k:02d}.json" for k in range(1, 11))


class SurfaceModel(NamedTuple):
    """One test surface: lattice, divisor restrictions, fiber count, note."""

    name: str
    family: int
    generators: Tuple[str, ...]
    gram: Tuple[Tuple[Fraction, ...], ...]
    restrictions: Mapping[str, Tuple[Fraction, ...]]
    rhs: PolyQ
    rationale: str

    def restriction(self, generator: str) -> Tuple[Scalar, ...]:
        """Restriction vector of a divisor generator; absent means zero."""
        if generator not in GENERATORS:
            raise KeyError(f"unknown divisor generator {_echo(generator)}")
        return self.restrictions.get(generator, (0,) * len(self.generators))

    def pair_generators(
        self, gen_a: str, gen_b: str, table: Optional[Tuple[Dict[Monomial, int], int]] = None
    ) -> Fraction:
        """Intersection number of two restricted divisor generators, read off
        ``table``, this surface's ``monomial_pairings()``, which is built when
        not given; an unknown name raises ``restriction``'s KeyError."""
        self.restriction(gen_a), self.restriction(gen_b)
        pairings, den = table or self.monomial_pairings()
        return Fraction(pairings[mono(GENERATORS.index(gen_a), GENERATORS.index(gen_b))], den)

    def monomial_pairings(self) -> Tuple[Dict[Monomial, int], int]:
        """The 21 generator monomials' intersection numbers over one denominator:
        the package's one pairing kernel.

        Gram and restrictions are cleared of denominators, Gram times the
        restriction is formed once per generator, and monomial (a, b) reads
        restriction_a . (Gram restriction_b) off it, so ``pairings[(a, b)] / den``
        is the intersection number of generators a and b.
        """
        gram, gden = clear_denominators(self.gram)
        vectors, rden = clear_denominators([self.restriction(g) for g in GENERATORS])
        products = [[sum(map(mul, row, v)) for row in gram] for v in vectors]
        pairings = {(a, b): sum(map(mul, vectors[a], products[b])) for a, b in MONOMIALS}
        return pairings, gden * rden * rden


class EquationRow(NamedTuple):
    """A linear functional on class vectors, with its polynomial target value."""

    coefficients: Tuple[Scalar, ...]  # ints or Fractions, as each kind of row computes them
    rhs: PolyQ
    label: str
    kind: str
    provenance: str = ""

    def apply(self, c: TautClass2) -> PolyQ:
        _require_type(c, TautClass2, "EquationRow.apply")
        return c.dot(self.coefficients)

    def residual(self, c: TautClass2) -> PolyQ:
        return self.apply(c) - self.rhs

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "kind": self.kind,
            "coefficients": {
                name: str(coeff)
                for name, coeff in zip(BASIS_NAMES, self.coefficients)
                if coeff
            },
            "rhs": self.rhs.to_strings(),
            "provenance": self.provenance,
        }


# The only fixture fields and their type rules, checked in this order: the
# JSON type each must have, the type of each of its items (of each value, for
# the restrictions map; None where no item type is checked here), and what the
# error says.  A fixture that breaks several rules reports the first field's.
_FIELDS = (
    ("name", str, None, "must be a string"),
    ("family", int, None, "must be an integer"),
    ("generators", list, str, "must be a list of generator names"),
    ("gram", list, list, "must be a list of rows of 'p/q' strings"),
    ("restrictions", dict, list, "must map generators to vectors"),
    ("rhs", list, None, "must be a list of 'p/q' strings"),
    ("rationale", str, None, "must be a string"),
)


def _parse_surface(doc: dict) -> SurfaceModel:
    for field, *_ in _FIELDS:
        if not isinstance(doc, dict) or field not in doc:
            raise ValueError(f"missing field {field!r}")
    if not isinstance(doc["name"], str):
        raise ValueError("name must be a string")
    name = _echo(doc["name"], str)  # as the messages print it
    for field in doc:
        if field not in {known for known, *_ in _FIELDS}:
            raise ValueError(f"{name}: unknown field {_echo(field)}")
    # bool is an int subclass, and a JSON true is not a family number
    for field, kind, item_kind, requirement in _FIELDS[1:]:
        value = doc[field]
        items = (value.values() if isinstance(value, dict) else value) if item_kind else ()
        if type(value) is bool or not isinstance(value, kind) or not all(isinstance(x, item_kind) for x in items):
            raise ValueError(f"{name}: {field} {requirement}")

    gram = tuple(tuple(parse_rational(x, name) for x in row) for row in doc["gram"])
    n = len(doc["generators"])
    if len(gram) != n or any(len(row) != n for row in gram):
        raise ValueError(f"{name}: gram shape does not match generators")
    restrictions = {}
    for gen, vec in doc["restrictions"].items():
        if gen not in GENERATORS:
            raise ValueError(f"{name}: unknown generator {_echo(gen)}")
        if len(vec) != n:
            raise ValueError(f"{name}: restriction length for {gen!r}")
        restrictions[gen] = tuple(parse_rational(x, name) for x in vec)
    return SurfaceModel(
        name=doc["name"],
        family=doc["family"],
        generators=tuple(doc["generators"]),
        gram=gram,
        restrictions=MappingProxyType(restrictions),
        rhs=PolyQ(parse_rational(x, name) for x in doc["rhs"]),
        rationale=doc["rationale"],
    )


@cache
def _fixture_bytes() -> Mapping[str, bytes]:
    """The shipped fixture files' bytes by file name, read once per process.

    Read from the package's folder, not through ``importlib.resources``:
    importing that loads ``tempfile``, ``random``, ``zipfile`` and
    ``pathlib``, 31-43 ms under ``python -S -X importtime`` (CPython 3.11.7,
    2-CPU Xeon host), which every JSON report would pay.
    """
    folder = os.path.join(os.path.dirname(__file__), "fixtures")
    blobs = {}
    for fname in FIXTURE_NAMES:
        with open(os.path.join(folder, fname), "rb") as fh:
            blobs[fname] = fh.read()
    return MappingProxyType(blobs)


def fixture_checksums() -> Dict[str, str]:
    """SHA-256 of each shipped fixture file, keyed by file name."""
    # Imported here: hashlib loads OpenSSL, about 3.6 MiB of resident memory
    # and a few milliseconds, which only JSON reports need.
    import hashlib

    return {
        name: hashlib.sha256(blob).hexdigest()
        for name, blob in _fixture_bytes().items()
    }


@lru_cache(maxsize=4)
def _load(
    blobs: Tuple[Tuple[str, bytes], ...], table, formula
) -> Tuple[Tuple[SurfaceModel, ...], Tuple[EquationRow, ...], GatedMatrix]:
    """The surfaces of (file name, bytes) pairs, all 16 rows, the surface
    rows first, and their coefficient matrix through ``linalg``'s input
    gate and its one elimination; a malformed fixture raises ValueError
    naming the file.  Memoized by everything the rows are built from: the
    fixture bytes, and the push-forward table and class formula that
    ``pushforward_rows`` reads.  ``_loaded`` passes the ones in ``m21`` at
    call time, so a patched table or formula gives fresh rows."""
    surfaces, rows = [], []
    for fname, blob in blobs:
        try:
            surface = _parse_surface(parse_json(blob.decode("utf-8")))
            if fname != f"family{surface.family:02d}.json":
                raise ValueError(f"family field {_echo(surface.family, str)} does not match the file name")
            rows.append(equation_row(surface))
        except ValueError as exc:
            raise ValueError(f"{fname}: {exc}") from None
        surfaces.append(surface)
    rows = tuple(rows) + symmetry_rows() + pushforward_rows()
    return tuple(surfaces), rows, GatedMatrix([r.coefficients for r in rows])


def _loaded() -> Tuple[Tuple[SurfaceModel, ...], Tuple[EquationRow, ...], GatedMatrix]:
    blobs = tuple(sorted(_fixture_bytes().items()))
    return _load(blobs, m21.PUSHFORWARD_TABLE_PI1, m21.pushforward_class_formula)


def gated_matrix(rows: Sequence[EquationRow]) -> GatedMatrix:
    """The rows' coefficient matrix through ``linalg``'s input gate: the
    fixture load's when ``rows`` is the loaded tuple itself, else gated on
    every call.  Identity, not equality: ``2.0 == 2``, so a row of floats
    equal to a shipped one would skip the gate."""
    _, loaded, matrix = _loaded()
    return matrix if rows is loaded else GatedMatrix([r.coefficients for r in rows])


def builtin_surfaces() -> Tuple[SurfaceModel, ...]:
    """The ten test surfaces from the shipped fixtures, shared between calls
    (immutable); a malformed fixture raises ValueError naming the file."""
    return _loaded()[0]


def equation_row(surface: SurfaceModel) -> EquationRow:
    """The linear equation a surface imposes on the 14 class coefficients.

    Coefficient k is the Gram pairing of the k-th basis monomial with the
    surface; the fused slot receives the psi1^2 pairing plus the psi2^2
    pairing.  The pairings are read off ``monomial_pairings`` in integers
    and each coefficient is divided once, into a Fraction.
    Raises ValueError on an asymmetric Gram matrix.
    """
    n = len(surface.generators)
    for i in range(n):
        for j in range(i + 1, n):
            if surface.gram[i][j] != surface.gram[j][i]:
                raise ValueError(f"{_echo(surface.name, str)}: gram matrix is not symmetric")
    pairings, den = surface.monomial_pairings()
    return EquationRow(
        coefficients=tuple(
            Fraction(sum(pairings[m] for m in monomials), den) for monomials in BASIS_MONOMIALS
        ),
        rhs=surface.rhs,
        label=f"surface-{surface.family:02d}",
        kind="surface",
        provenance=surface.rationale,
    )


def symmetry_rows() -> Tuple[EquationRow, ...]:
    """Marking symmetry: the two slots of each pair that ``chow._SWAP`` exchanges agree."""
    rows = []
    for a, b in enumerate(_SWAP):
        if a >= b:
            continue
        what = BASIS_NAMES[a].replace("psi1", "psi*")
        rows.append(
            EquationRow(
                coefficients=tuple((k == a) - (k == b) for k in range(len(_SWAP))),
                rhs=PolyQ(),
                label=f"symmetry-{what}",
                kind="symmetry",
                provenance=(
                    "the locus is symmetric in the two marked points, so the "
                    f"two {what} coefficients coincide"
                ),
            )
        )
    return tuple(rows)


def pushforward_rows() -> Tuple[EquationRow, ...]:
    """Matching the push-forward to the 1-pointed space coefficient-wise.

    The row for each target coordinate (psi, d0, d1) reads off the
    coordinate of the push-forward of the 14-basis, so these rows are
    exactly the coordinate functionals of the push-forward map; the
    right-hand sides are the coordinates of the known pushed-forward class.
    """
    target = m21.pushforward_class_formula(D)
    rows = []
    columns = zip(*m21.PUSHFORWARD_TABLE_PI1)
    for name, coeffs, rhs in zip(m21.M21_NAMES, columns, target.coeffs):
        rows.append(
            EquationRow(
                coefficients=coeffs,
                rhs=rhs,
                label=f"pushforward-{name}",
                kind="pushforward",
                provenance=(
                    f"{name} coordinate of the push-forward along the map "
                    "forgetting the first marked point"
                ),
            )
        )
    return tuple(rows)


def full_system_rows() -> Tuple[EquationRow, ...]:
    """All 16 rows: the ten surfaces, then symmetry, then push-forward.

    All 16 are built once per distinct fixture content and push-forward
    table and formula, by the memoized fixture load, and shared between
    calls: the rows are immutable.
    """
    return _loaded()[1]


# Every intersection number displayed alongside the family constructions,
# keyed by family; used for the golden-number check.
DISPLAYED_INTERSECTIONS: Tuple[Tuple[int, str, str, int], ...] = (
    (1, "psi1", "psi1", 2),
    (1, "psi2", "psi2", 2),
    (1, "psi1", "psi2", 6),
    (1, "d2", "d2", -2),
    (2, "psi1", "psi2", 1),
    (2, "psi1", "d11", -1),
    (2, "psi2", "d11", -1),
    (2, "psi1", "d12", 1),
    (2, "psi2", "d12", 1),
    (3, "d0", "d0", 288),
    (3, "d0", "d12", -24),
    (4, "psi2", "d12", -1),
    (4, "psi2", "d0", 12),
    (4, "d0", "d12", 12),
    (4, "d0", "d11", -12),
    (5, "psi1", "psi1", 1),
    (5, "psi1", "d11", -1),
    (5, "psi1", "d0", 12),
    (5, "d0", "d12", 12),
    (5, "d0", "d11", -12),
    (6, "d0", "d12", 12),
    (6, "d0", "d0", -44),
    (7, "d2", "d2", 1),
    (7, "d12", "d2", 1),
    (7, "d0", "d2", -12),
    (8, "d12", "d2", 1),
    (8, "d0", "d2", -12),
    (9, "psi1", "d12", -1),
    (9, "psi2", "d12", -1),
    (9, "psi1", "d0", 12),
    (9, "psi2", "d0", 12),
    (10, "d2", "d2", 1),
    (10, "d12", "d2", -2),
    (10, "d0", "d2", 4),
)
