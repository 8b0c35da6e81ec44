"""Builtin manifold catalog with bundled one-forms and expected check outcomes.

Entries are stored as source text in the manifold grammar, so loading the
catalog also exercises the parser.  Each entry carries pi variants (constant,
linear, trigonometric where rank allows, plus two tuned fields on the free
step-2 group that realize the hypotheses of the conditional checks exactly:
``alpha-zero`` has vanishing characteristic trace everywhere, ``proportional``
has characteristic tensor equal to (alpha/ell) g everywhere).

``CatalogEntry.expected_status`` gives the expected status of every check for
every variant (and for no one-form) under any default-tolerance
configuration: "pass", "skip" (rank obstruction) or "fail" (check C13's
tabulated closed form is inconsistent, so it fails whenever pi is nonzero).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .connections import OneFormData
from .errors import UnknownEntry
from .manifold import ManifoldSpec
from .parser import parse_document, parse_oneform
from .verifier import CHECKS

_H1_SOURCE = """\
manifold heisenberg1
dim 3
hdim 2
coords x y z
hframe
  X1 = dx - (y/2) dz
  X2 = dy + (x/2) dz
vframe
  Z = dz
metric identity
"""

_H2_SOURCE = """\
manifold heisenberg2
dim 5
hdim 4
coords x1 y1 x2 y2 z
hframe
  X1 = dx1 - (y1/2) dz
  X2 = dy1 + (x1/2) dz
  X3 = dx2 - (y2/2) dz
  X4 = dy2 + (x2/2) dz
vframe
  Z = dz
metric identity
"""

_FREE_SOURCE = """\
manifold free-step2-l3
dim 6
hdim 3
coords x1 x2 x3 z12 z13 z23
hframe
  X1 = dx1 - (x2/2) dz12 - (x3/2) dz13
  X2 = dx2 + (x1/2) dz12 - (x3/2) dz23
  X3 = dx3 + (x1/2) dz13 + (x2/2) dz23
vframe
  Z12 = dz12
  Z13 = dz13
  Z23 = dz23
metric identity
"""

_FLAT3_SOURCE = """\
manifold flat3
dim 3
hdim 2
coords x y z
hframe
  X1 = dx
  X2 = dy
vframe
  Z = dz
metric identity
"""

_CURVED_SOURCE = """\
manifold curved-metric-l3
dim 4
hdim 3
coords x y z w
hframe
  X1 = dx - (y/2) dw
  X2 = dy + (x/2) dw
  X3 = w dx + dz
vframe
  W = dw
metric rows
  1 + x^2, (x*y)/2, 0
  (x*y)/2, 1 + y^2, 0
  0, 0, 1 + z^2
"""

_INVOLUTIVE_SOURCE = """\
manifold involutive-l3
dim 4
hdim 3
coords x y z w
hframe
  E1 = dx
  E2 = dy
  E3 = x dy + dz
vframe
  W = dw
metric rows
  1, 0, 0
  0, 1 + x^2, 0
  0, 0, 1
"""


@dataclass(frozen=True)
class PiVariant:
    name: str
    expressions: tuple[str, ...]

    def build(self, spec: ManifoldSpec) -> OneFormData:
        return parse_oneform([(text, 1, 0) for text in self.expressions], spec.coords)


@dataclass
class CatalogEntry:
    """A builtin manifold with bundled pi variants and expected check outcomes."""

    name: str
    source: str
    pi_variants: tuple[PiVariant, ...]
    flags: frozenset = frozenset()

    @cached_property
    def spec(self) -> ManifoldSpec:
        return parse_document(self.source).spec

    def variant(self, name: str) -> PiVariant:
        for v in self.pi_variants:
            if v.name == name:
                return v
        raise UnknownEntry(f"entry {self.name!r} has no pi variant {name!r}")

    def oneform(self, variant_name: str | None) -> OneFormData | None:
        if variant_name is None:
            return None
        return self.variant(variant_name).build(self.spec)

    def expected_status(self, variant_name: str | None, check_id: str) -> str:
        """The status the module docstring states; KeyError for an unknown variant or check id."""
        check = {c.id: c for c in CHECKS}[check_id]
        if variant_name and variant_name not in {v.name for v in self.pi_variants}:
            raise KeyError(variant_name)
        if self.spec.ell < check.required_rank:
            return "skip"
        return "fail" if check.id == "C13" and variant_name else "pass"


_CATALOG: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry("heisenberg1", _H1_SOURCE,
                 (PiVariant("const", ("1", "0")),
                  PiVariant("trig", ("sin(x)", "cos(y)"))),
                 flags=frozenset({"carnot"})),
    CatalogEntry("heisenberg2", _H2_SOURCE,
                 (PiVariant("const", ("1", "0", "0", "0")),
                  PiVariant("linear", ("y1", "x1", "x2", "0")),
                  PiVariant("trig", ("sin(x1)", "cos(y1)", "sin(x2)", "cos(y2)"))),
                 flags=frozenset({"carnot"})),
    CatalogEntry("free-step2-l3", _FREE_SOURCE,
                 (PiVariant("const", ("1", "0", "0")),
                  PiVariant("linear", ("x2", "x1", "x3")),
                  PiVariant("trig", ("sin(x1)", "cos(x2)", "sin(x3)")),
                  PiVariant("alpha-zero", ("2/(x1 + 4)", "0", "0")),
                  PiVariant("proportional", ("1/(4 - x1)", "0", "0"))),
                 flags=frozenset({"carnot"})),
    CatalogEntry("flat3", _FLAT3_SOURCE,
                 (PiVariant("const", ("1", "0")),
                  PiVariant("linear", ("y", "x"))),
                 flags=frozenset({"carnot"})),
    CatalogEntry("curved-metric-l3", _CURVED_SOURCE,
                 (PiVariant("const", ("1", "0", "0")),
                  PiVariant("linear", ("y", "x", "z")),
                  PiVariant("trig", ("sin(x)", "cos(y)", "sin(z)")))),
    CatalogEntry("involutive-l3", _INVOLUTIVE_SOURCE,
                 (PiVariant("const", ("1", "0", "0")),
                  PiVariant("linear", ("y", "x", "z")),
                  PiVariant("trig", ("sin(x)", "cos(y)", "sin(z)")))),
)}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def builtin(name: str) -> CatalogEntry:
    """Look up a builtin entry; UnknownEntry for anything else."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownEntry(
            f"unknown builtin {name!r}; available: {', '.join(_CATALOG)}") from None
