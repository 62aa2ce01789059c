"""Core domain types: marker datasets, coefficient vectors, CSV ingestion.

A dataset holds one marker matrix per ordered outcome category, lowest
severity first.  All downstream evaluators consume either the dataset or the
per-category score vectors obtained by projecting marker rows onto a
coefficient vector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCategory,
    FewerThanTwoCategories,
    IndexOutOfRange,
    MissingColumn,
    ShumFitError,
    UnparseableNumeric,
)


@dataclass(frozen=True)
class MarkerDataset:
    """Marker values grouped by ordered outcome category.

    Parameters
    ----------
    categories : tuple of ndarray
        One (n_j, d) float matrix per category, ascending severity.
    marker_names : tuple of str
        Column labels, length d.
    category_labels : tuple
        Original outcome labels, ascending, length M.
    n_dropped : int
        Rows removed by complete-case deletion during ingestion.
    """

    categories: tuple
    marker_names: tuple
    category_labels: tuple
    n_dropped: int = 0

    def __post_init__(self):
        if len(self.categories) < 2:
            raise FewerThanTwoCategories(
                f"need at least 2 categories, got {len(self.categories)}"
            )
        d = self.categories[0].shape[1]
        if d < 1:
            raise DimensionMismatch("need at least one marker column")
        if len(self.marker_names) != d:
            raise DimensionMismatch(
                f"{len(self.marker_names)} marker names for {d} columns"
            )
        for label, x in zip(self.category_labels, self.categories):
            if x.ndim != 2 or x.shape[1] != d:
                raise DimensionMismatch(
                    f"category {label!r}: expected (n, {d}) matrix, got {x.shape}"
                )
            if x.shape[0] < 1:
                raise EmptyCategory(label)
            if not np.isfinite(x).all():
                raise ShumFitError(f"a marker value in category {label!r} is non-finite")

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @property
    def n_markers(self) -> int:
        return self.categories[0].shape[1]

    @property
    def sizes(self) -> tuple:
        return tuple(x.shape[0] for x in self.categories)

    @property
    def n_total(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class Coefficients:
    """A combination vector with an optional identifiability anchor.

    When ``anchor_index`` is set, ``beta[anchor_index] == 1`` exactly and the
    free components are everything else in original order.  Methods that do
    not anchor (equal-weight, unit-norm reports) use ``anchor_index=None``.
    """

    beta: np.ndarray
    anchor_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.anchor_index is not None:
            if not 0 <= self.anchor_index < self.beta.size:
                raise IndexOutOfRange(
                    f"anchor {self.anchor_index} outside 0..{self.beta.size - 1}"
                )
            if self.beta[self.anchor_index] != 1.0:
                raise DimensionMismatch("anchored coefficient must equal 1 exactly")

    @property
    def free(self) -> np.ndarray:
        if self.anchor_index is None:
            return self.beta.copy()
        return extract_theta(self.beta, self.anchor_index)


# ---------------------------------------------------------------------------
# anchored parametrization
# ---------------------------------------------------------------------------

def anchored_to_full(theta: Sequence[float], anchor_index: int) -> np.ndarray:
    """Insert coefficient 1 at ``anchor_index`` into the free vector."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size + 1
    if not 0 <= anchor_index < d:
        raise IndexOutOfRange(f"anchor {anchor_index} outside 0..{d - 1}")
    beta = np.empty(d)
    beta[:anchor_index] = theta[:anchor_index]
    beta[anchor_index] = 1.0
    beta[anchor_index + 1:] = theta[anchor_index:]
    return beta


def extract_theta(beta: Sequence[float], anchor_index: int) -> np.ndarray:
    """Inverse of :func:`anchored_to_full`: drop the anchored coordinate."""
    beta = np.asarray(beta, dtype=float)
    if not 0 <= anchor_index < beta.size:
        raise IndexOutOfRange(f"anchor {anchor_index} outside 0..{beta.size - 1}")
    return np.delete(beta, anchor_index)


def project_scores(data: MarkerDataset, beta: Sequence[float]) -> list:
    """Per-category score vectors beta'X, one length-n_j array per category."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.n_markers,):
        raise DimensionMismatch(
            f"beta has shape {beta.shape}, expected ({data.n_markers},)"
        )
    return [x @ beta for x in data.categories]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def finite_number(token: str) -> Optional[float]:
    """``float(token)`` if it parses and is finite, else None.  The one reader
    of real numbers from outside the program: CSV cells, --lambda, --weights."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_csv(path, outcome_column: str, marker_columns: Sequence[str]) -> MarkerDataset:
    """Read a comma-separated UTF-8 file, with or without a byte-order mark,
    into a :class:`MarkerDataset`.

    The header row is mandatory and every cell is read by :func:`finite_number`.
    Rows with a marker cell that is not a finite number (blank, ``NA``, text,
    ``nan``, ``inf``, or missing from a short row) are dropped complete-case
    and counted in ``n_dropped``.  Outcome labels are rank-mapped ascending;
    one that is not a finite number raises :class:`UnparseableNumeric` with
    the row index (1-based, excluding the header).  A repeated marker, a
    marker that is the outcome, a requested column that the header names more
    than once, or a file that is not UTF-8 CSV raises :class:`ShumFitError`.
    """
    names = [outcome_column, *marker_columns]
    if len(set(names)) < len(names):
        raise ShumFitError(f"markers must be distinct columns other than the outcome "
                           f"{outcome_column!r}, got {names[1:]}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            for name in names:
                copies = header.count(name)
                if copies == 0:
                    raise MissingColumn(name)
                if copies > 1:
                    raise ShumFitError(f"the header names column {name!r} {copies} times")
            columns = [header.index(name) for name in names]

            groups: dict = {}
            n_dropped = 0
            for row_index, row in enumerate(reader, start=1):
                if not any(tok.strip() for tok in row):
                    continue
                cells = [row[c].strip() if c < len(row) else "" for c in columns]
                label = finite_number(cells[0])
                if label is None:
                    raise UnparseableNumeric(row_index, cells[0])
                values = [finite_number(tok) for tok in cells[1:]]
                rows = groups.setdefault(label, [])  # stays empty if every row is dropped
                if None in values:
                    n_dropped += 1
                else:
                    rows.append(values)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ShumFitError(f"cannot read {path} as UTF-8 CSV: {exc}") from None

    if len(groups) < 2:
        raise FewerThanTwoCategories(
            f"found {len(groups)} outcome level(s), need at least 2"
        )
    for label, rows in groups.items():
        if not rows:
            raise EmptyCategory(label)

    labels = sorted(groups)
    categories = tuple(np.asarray(groups[label], dtype=float) for label in labels)
    return MarkerDataset(
        categories=categories,
        marker_names=tuple(names[1:]),
        category_labels=tuple(labels),
        n_dropped=n_dropped,
    )
