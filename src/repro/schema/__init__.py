"""Relational schemas: relations, attributes, primary keys, foreign keys.

This package models the pair ``(Rels, FKeys)`` of Section 3.1 of the paper.
A :class:`Relation` carries a finite attribute set and a primary key; a
:class:`ForeignKey` is a named mapping from a *domain* relation to a *range*
relation, realised over concrete attribute columns; a :class:`Schema` is a
validated collection of both.

:class:`AttributeInterner` (``Schema.interner``) numbers each relation's
attributes and protecting foreign keys from bit 0, turning statement
attribute sets into relation-local integer bitmasks — the representation
the compiled interference kernel of :mod:`repro.summary.pairwise` runs on.
"""

from repro.schema.interning import AttributeInterner, StatementMasks
from repro.schema.model import ForeignKey, Relation, Schema

__all__ = ["Relation", "ForeignKey", "Schema", "AttributeInterner", "StatementMasks"]
