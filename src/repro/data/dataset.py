"""Tabular store of individuals (workers) for FaiRank, backed by column arrays.

The :class:`Dataset` is the substrate every other subsystem consumes: the
scoring functions read observed attribute columns from it, the partitioning
algorithms group its rows by protected-attribute values, the anonymiser
rewrites its protected columns, and the marketplace generator produces it.

Every dataset holds one :class:`~repro.data.columns.ColumnStore` of
contiguous numpy arrays — integer-coded protected attributes, ``float64``
observed attributes, optionally memory-mapped from disk — whichever
constructor built it: rows (``Dataset(schema, individuals)``), records,
column vectors or an existing store all pack through
:class:`~repro.data.columns.ColumnStoreBuilder`.  Column access
(:meth:`column`, :meth:`numeric_column`, :meth:`observed_matrix`,
:meth:`codes`, :meth:`value_counts`, :meth:`distinct_values`) and the
relational operations (:meth:`subset`, :meth:`group_by`, :meth:`project`,
...) work on the arrays.  :class:`Individual` rows are a lazy, cached view
for the few consumers that walk rows (bias planting, k-anonymity, ranking,
row filters, the roles, per-row scoring); the scoring and partitioning hot
paths never build one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.columns import CodedColumn, Column, ColumnStore, ColumnStoreBuilder, NumericColumn
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import DataError, EmptyDatasetError, UnknownAttributeError

__all__ = ["Individual", "Dataset", "order_values"]

#: Guards per-dataset lazy caches (integer codings, materialised rows) so
#: concurrent readers (HTTP handler threads) never duplicate work.
_codes_lock = threading.Lock()


def order_values(attr: Attribute, present: Iterable[object]) -> Tuple[object, ...]:
    """Canonical ordering of an attribute's distinct values.

    Uses the declared domain order when available; otherwise a stable sorted
    order (by string representation for mixed types).  This is the single
    ordering contract shared by :meth:`Dataset.distinct_values` and the score
    store's index-based splits, so both produce children in the same order.
    """
    present = set(present)
    if attr.domain is not None and attr.atype is not AttributeType.NUMERIC:
        return tuple(v for v in attr.domain if v in present)
    return tuple(sorted(present, key=lambda v: (str(type(v)), str(v))))


@dataclass(frozen=True)
class Individual:
    """A single individual (worker) with an identifier and attribute values.

    ``values`` maps attribute name to value.  Individuals are immutable; the
    dataset is the unit of mutation (by producing new datasets).  The rows of
    a dataset are a view built on first iteration from its decode tables and
    numeric arrays, carrying exactly the values the columns hold.
    """

    uid: str
    values: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, name: str) -> object:
        try:
            return self.values[name]
        except KeyError:
            raise UnknownAttributeError(name, tuple(self.values)) from None

    def get(self, name: str, default: object = None) -> object:
        return self.values.get(name, default)

    def with_values(self, **updates: object) -> "Individual":
        """Return a copy of this individual with some attribute values replaced."""
        merged = dict(self.values)
        merged.update(updates)
        return Individual(uid=self.uid, values=merged)


def _pack_columns(
    attributes: Iterable[Attribute], columns: Mapping[str, Sequence[object]]
) -> Dict[str, Column]:
    """Pack value vectors into columns, keeping every value's exact type.

    A numeric attribute whose values are all plain floats becomes a
    contiguous ``float64`` array; every other attribute becomes an
    integer-coded column whose decode table keeps the exact values (ints
    stay ints, bools stay bools), so the content fingerprint survives
    :meth:`ColumnStore.save`/:meth:`ColumnStore.load`.
    """
    names = [attr.name for attr in attributes]
    numeric = [
        attr.name
        for attr in attributes
        if attr.atype is AttributeType.NUMERIC
        and all(type(value) is float for value in columns[attr.name])
    ]
    builder = ColumnStoreBuilder([n for n in names if n not in numeric], numeric)
    builder.append_chunk({name: columns[name] for name in names})
    store = builder.finish()
    return {name: store.column(name) for name in names}


def _store(
    schema: Schema, columns: Mapping[str, Sequence[object]], uids: Sequence[str]
) -> ColumnStore:
    """One :class:`ColumnStore` over ``columns``; ``w1..wn`` uids are not stored."""
    sequential = all(uid == f"w{index}" for index, uid in enumerate(uids, start=1))
    return ColumnStore(
        len(uids), _pack_columns(schema, columns), uids=None if sequential else uids
    )


def _gather(
    schema: Schema, uids: Sequence[str], rows: Sequence[Mapping[str, object]]
) -> Dict[str, List[object]]:
    """Per-attribute value vectors of ``rows``, naming the first missing value."""
    try:
        return {name: [row[name] for row in rows] for name in schema.names}
    except KeyError:
        for uid, row in zip(uids, rows):
            for name in schema.names:
                if name not in row:
                    raise DataError(
                        f"individual {uid!r} is missing attribute {name!r}"
                    ) from None
        raise


class Dataset:
    """A set of individuals conforming to a :class:`Schema`.

    Every constructor packs its input into a :class:`ColumnStore` and (unless
    ``validate=False``) validates it against the schema; the dataset exposes
    column access, filtering, projection and group-by operations used
    throughout the library.  :meth:`column`, :meth:`numeric_column`,
    :meth:`observed_matrix`, :meth:`codes`, :meth:`value_counts` and
    :meth:`distinct_values` are served straight from the arrays — no
    :class:`Individual` is created unless a consumer iterates rows, at which
    point they materialise once and are cached.
    """

    def __init__(
        self,
        schema: Schema,
        individuals: Iterable[Individual],
        name: str = "dataset",
        validate: bool = True,
    ) -> None:
        rows = tuple(individuals)
        uids = [str(individual.uid) for individual in rows]
        columns = _gather(schema, uids, [individual.values for individual in rows])
        self._init(schema, _store(schema, columns, uids), name, validate)

    def _init(self, schema: Schema, store: ColumnStore, name: str, validate: bool) -> None:
        self.schema = schema
        self.name = name
        self._store = store
        if validate:
            self._validate_store()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Sequence[Mapping[str, object]],
        name: str = "dataset",
        uid_field: Optional[str] = None,
    ) -> "Dataset":
        """Build a dataset from a sequence of dict-like records.

        If ``uid_field`` is given, that key supplies each individual's id and
        is removed from the attribute values; otherwise ids ``w1, w2, ...``
        are assigned in order (matching the paper's Table 1 convention).
        """
        records = list(records)
        if uid_field is None:
            uids = [f"w{index}" for index in range(1, len(records) + 1)]
        else:
            uids = []
            for index, record in enumerate(records, start=1):
                if uid_field not in record:
                    raise DataError(f"record {index} is missing uid field {uid_field!r}")
                uids.append(str(record[uid_field]))
        return cls.from_store(
            schema, _store(schema, _gather(schema, uids, records), uids), name=name
        )

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Mapping[str, Sequence[object]],
        name: str = "dataset",
        uids: Optional[Sequence[str]] = None,
        validate: bool = True,
    ) -> "Dataset":
        """Build a dataset from column vectors keyed by name."""
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise DataError(f"columns have inconsistent lengths: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        if uids is None:
            uids = [f"w{i}" for i in range(1, n + 1)]
        elif len(uids) != n:
            raise DataError(f"got {len(uids)} uids for {n} rows")
        uids = [str(uid) for uid in uids]
        missing = [attr_name for attr_name in schema.names if attr_name not in columns]
        if missing and n:
            raise DataError(f"individual {uids[0]!r} is missing attribute {missing[0]!r}")
        columns = {attr_name: columns.get(attr_name, ()) for attr_name in schema.names}
        return cls.from_store(
            schema, _store(schema, columns, uids), name=name, validate=validate
        )

    @classmethod
    def from_store(
        cls,
        schema: Schema,
        store: ColumnStore,
        name: str = "dataset",
        validate: bool = True,
    ) -> "Dataset":
        """Build a dataset over an existing :class:`ColumnStore`.

        No :class:`Individual` objects are created — rows materialise lazily
        on first iteration.
        """
        dataset = cls.__new__(cls)
        dataset._init(schema, store, name, validate)
        return dataset

    def _validate_store(self) -> None:
        """Validate the store against the schema without building a row.

        Checks unique uids, every schema attribute present and every value
        admissible: O(distinct values) for coded columns, one vectorised
        range comparison for numeric columns.
        """
        store = self._store
        uids = store.explicit_uids
        if uids is not None and len(set(uids)) != len(uids):
            seen = set()
            for uid in uids:
                if uid in seen:
                    raise DataError(f"duplicate individual id {uid!r}")
                seen.add(uid)
        for attr in self.schema:
            try:
                column = store.column(attr.name)
            except DataError:
                raise DataError(
                    f"dataset {self.name!r} has no column for attribute {attr.name!r}"
                ) from None
            if isinstance(column, CodedColumn):
                for value in column.values:
                    if not attr.validate_value(value):
                        index = int(np.argmax(column.codes == column.values.index(value)))
                        uid = store.uid_range(index, index + 1)[0]
                        raise DataError(
                            f"individual {uid!r} has invalid value {value!r} "
                            f"for attribute {attr.name!r}"
                        )
            else:
                if attr.atype is not AttributeType.NUMERIC:
                    raise DataError(
                        f"attribute {attr.name!r} is {attr.atype.value} but is backed "
                        "by a numeric column"
                    )
                if attr.domain is not None and len(column):
                    low, high = float(attr.domain[0]), float(attr.domain[1])
                    values = column.values
                    with np.errstate(invalid="ignore"):
                        bad = ~((values >= low) & (values <= high))
                    if bad.any():
                        index = int(np.argmax(bad))
                        uid = store.uid_range(index, index + 1)[0]
                        raise DataError(
                            f"individual {uid!r} has invalid value "
                            f"{float(values[index])!r} for attribute {attr.name!r}"
                        )

    # -- backing -----------------------------------------------------------

    @property
    def store(self) -> ColumnStore:
        """The column backing."""
        return self._store

    def to_store(self) -> ColumnStore:
        """The column backing (e.g. to :meth:`ColumnStore.save` it)."""
        return self._store

    @property
    def individuals(self) -> Tuple[Individual, ...]:
        """All rows as :class:`Individual` objects, materialised on first use."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            with _codes_lock:
                rows = self.__dict__.get("_rows")
                if rows is None:
                    names = self.schema.names
                    rows = tuple(
                        Individual(uid=uid, values=dict(zip(names, values)))
                        for uid, values in self.iter_rows()
                    )
                    self.__dict__["_rows"] = rows
        return rows

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._store.n

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, index: int) -> Individual:
        return self.individuals[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, n={len(self)}, "
            f"protected={list(self.schema.protected_names)}, "
            f"observed={list(self.schema.observed_names)})"
        )

    @property
    def uids(self) -> Tuple[str, ...]:
        """All row ids, in row order (no rows materialised)."""
        return self._store.uids()

    def by_uid(self, uid: str) -> Individual:
        """Return the individual with the given id."""
        try:
            return self.individuals[self.uids.index(uid)]
        except ValueError:
            raise DataError(f"no individual with id {uid!r} in dataset {self.name!r}") from None

    def iter_rows(self, chunk_rows: int = 65536) -> Iterator[Tuple[str, List[object]]]:
        """Yield ``(uid, [values in schema order])`` per row.

        Decodes ``chunk_rows`` rows at a time and never materialises
        :class:`Individual` objects — it is the streaming row walk content
        fingerprinting uses, so registering a 10M-row population holds one
        chunk of Python values at a time.
        """
        return self._store.iter_rows(self.schema.names, chunk_rows=chunk_rows)

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> Tuple[object, ...]:
        """Return the values of attribute ``name`` for all individuals, in order."""
        self.schema.attribute(name)
        return tuple(self._store.column(name).decode_range(0, len(self)))

    def numeric_column(self, name: str) -> np.ndarray:
        """Return a fresh float array of an observed (numeric) attribute column.

        A ``float64`` column is copied (no per-row ``float()`` calls); the
        copy keeps the contract that callers may mutate the result without
        corrupting the dataset.
        """
        attr = self.schema.attribute(name)
        if attr.atype is not AttributeType.NUMERIC:
            raise DataError(f"attribute {name!r} is not numeric")
        column = self._store.column(name)
        if isinstance(column, NumericColumn):
            return np.array(column.values, dtype=float)
        return np.asarray([float(v) for v in column.decode_range(0, len(self))], dtype=float)

    def codes(self, name: str) -> Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]:
        """Integer coding of attribute ``name``: ``(codes, decode, encode)``.

        ``codes`` is a read-only ``int64`` array of per-row codes, ``decode``
        maps code -> value and ``encode`` value -> code.  Values equal under
        ``==`` (``1``, ``1.0``, ``True``) share one code, whose decode value
        is the first of them the decode table holds.  This is the coding the
        score store's index-based splits consume; a coded column serves it
        with zero per-row work, a numeric column computes and caches it once.
        """
        cache: Dict[str, Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]]
        cache = self.__dict__.setdefault("_codes_cache", {})
        cached = cache.get(name)
        if cached is not None:
            return cached
        self.schema.attribute(name)
        result = self._codes_from_store(self._store, name)
        with _codes_lock:
            return cache.setdefault(name, result)

    @staticmethod
    def _codes_from_store(
        store: ColumnStore, name: str
    ) -> Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]:
        column = store.column(name)
        if isinstance(column, CodedColumn):
            decode = column.values
            encode: Dict[object, int] = {}
            for code, value in enumerate(decode):
                encode.setdefault(value, code)
            if len(encode) == len(decode):
                return (column.codes, decode, encode)
            # The decode table distinguishes equal-under-`==` values (1 vs
            # 1.0); splits and counts must not.
            collapsed: Dict[object, int] = {}
            for value in decode:
                collapsed.setdefault(value, len(collapsed))
            remap = np.asarray([collapsed[value] for value in decode], dtype=np.int64)
            codes = remap[np.asarray(column.codes)]
            codes.setflags(write=False)
            return (codes, tuple(collapsed), collapsed)
        # Numeric backing: first-seen coding computed vectorised.
        values = np.asarray(column.values)
        uniques, first_pos, inverse = np.unique(
            values, return_index=True, return_inverse=True
        )
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        codes = rank[inverse]
        codes.setflags(write=False)
        decode_list = [float(uniques[index]) for index in order]
        encode = {value: code for code, value in enumerate(decode_list)}
        return (codes, tuple(decode_list), encode)

    def value_counts(self, name: str) -> Dict[object, int]:
        """Return a value -> count mapping for attribute ``name``.

        Counts are taken over :meth:`codes`, so values equal under ``==``
        count as one key; keys follow the decode order (first-seen row order
        for a store a builder packed).
        """
        codes, decode, _ = self.codes(name)
        counts = np.bincount(codes, minlength=len(decode))
        return {value: int(counts[code]) for code, value in enumerate(decode) if counts[code]}

    def distinct_values(self, name: str) -> Tuple[object, ...]:
        """Distinct values of attribute ``name``.

        Uses the declared domain order when available; otherwise values are
        returned in a stable sorted order (by string representation for mixed
        types) so downstream algorithms are deterministic.
        """
        attr = self.schema.attribute(name)
        codes, decode, _ = self.codes(name)
        return order_values(attr, (decode[code] for code in np.unique(codes).tolist()))

    # -- relational-ish operations ------------------------------------------

    def filter(
        self, predicate: Callable[[Individual], bool], name: Optional[str] = None
    ) -> "Dataset":
        """Return a new dataset with only the individuals matching ``predicate``."""
        kept = [position for position, ind in enumerate(self.individuals) if predicate(ind)]
        return self.subset(kept, name=name or f"{self.name}/filtered")

    def positions(self, uids: Iterable[str]) -> List[int]:
        """Sorted row positions of the given individual ids."""
        wanted = set(uids)
        found = [index for index, uid in enumerate(self.uids) if uid in wanted]
        if len(found) != len(wanted):
            missing = wanted - set(self.uids)
            raise DataError(f"unknown individual ids: {sorted(missing)}")
        return found

    def select_uids(self, uids: Iterable[str]) -> "Dataset":
        """Return a new dataset restricted to the given individual ids."""
        return self.subset(self.positions(uids))

    def subset(self, positions: Iterable[int], name: Optional[str] = None) -> "Dataset":
        """Return a new dataset of the rows at ``positions``, in that order.

        Coded columns are re-coded to the first-seen order of the kept rows,
        so the subset's :meth:`codes`, :meth:`value_counts` and group orders
        are those of the same rows packed afresh.
        """
        store = self._store
        positions = np.asarray(positions, dtype=np.intp)
        columns = {column_name: store.column(column_name).take(positions)
                   for column_name in store.names}
        if store.explicit_uids is None and np.array_equal(
            positions, np.arange(len(positions))
        ):
            uids: Optional[List[str]] = None
        else:
            all_uids = store.uids()
            uids = [all_uids[position] for position in positions.tolist()]
        return Dataset.from_store(
            self.schema,
            ColumnStore(len(positions), columns, uids=uids),
            name=name or f"{self.name}/subset",
            validate=False,
        )

    def project(self, names: Sequence[str]) -> "Dataset":
        """Return a dataset with only the attributes in ``names``."""
        sub_schema = self.schema.project(names)
        store = self._store
        columns = {name: store.column(name) for name in sub_schema.names}
        return Dataset.from_store(
            sub_schema,
            ColumnStore(len(self), columns, uids=store.explicit_uids),
            name=f"{self.name}/projected",
            validate=False,
        )

    def map_column(
        self,
        name: str,
        mapper: Callable[[object], object],
        as_categorical: bool = False,
    ) -> "Dataset":
        """Return a dataset where column ``name`` is rewritten by ``mapper``.

        The attribute's declared domain is dropped (set to ``None``) because
        the mapping may introduce values outside it — this is exactly what
        anonymisation/generalisation does.  Pass ``as_categorical=True`` when
        the mapper turns a numeric column into interval labels (strings).
        """
        attr = self.schema.attribute(name)
        new_type = AttributeType.CATEGORICAL if as_categorical else attr.atype
        new_attr = Attribute(
            name=attr.name,
            kind=attr.kind,
            atype=new_type,
            domain=None,
            description=attr.description,
        )
        new_schema = self.schema.replace_attribute(new_attr)
        store = self._store
        columns = {column_name: store.column(column_name) for column_name in store.names}
        columns.update(
            _pack_columns((new_attr,), {name: [mapper(value) for value in self.column(name)]})
        )
        return Dataset.from_store(
            new_schema,
            ColumnStore(len(self), columns, uids=store.explicit_uids),
            name=self.name,
            validate=False,
        )

    def with_schema(self, schema: Schema) -> "Dataset":
        """Return this data re-validated under a (compatible) new schema."""
        return Dataset.from_store(schema, self._store, name=self.name)

    def group_by(self, names: Sequence[str]) -> Dict[Tuple[object, ...], "Dataset"]:
        """Group individuals by the combination of values of ``names``.

        Returns a mapping from the value tuple to the sub-dataset of
        individuals having those values, preserving input order inside each
        group.  Group keys are emitted in first-seen order.
        """
        codings = [self.codes(name) for name in names]
        if not len(self):
            return {}
        if not codings:
            return {(): self.subset(np.arange(len(self)), name=f"{self.name}/()")}
        stacked = np.column_stack([codes for codes, _, _ in codings])
        _, first, inverse = np.unique(
            stacked, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse))[:-1]
        members = np.split(order, bounds)
        groups: Dict[Tuple[object, ...], "Dataset"] = {}
        for group in np.argsort(first, kind="stable").tolist():
            row = int(first[group])
            key = tuple(decode[codes[row]] for codes, decode, _ in codings)
            groups[key] = self.subset(members[group], name=f"{self.name}/{key}")
        return groups

    def concat(self, other: "Dataset", name: Optional[str] = None) -> "Dataset":
        """Concatenate two datasets over the same schema."""
        if set(other.schema.names) != set(self.schema.names):
            raise DataError("cannot concatenate datasets with different schemas")
        columns = {
            attr_name: self.column(attr_name) + other.column(attr_name)
            for attr_name in self.schema.names
        }
        return Dataset.from_store(
            self.schema,
            _store(self.schema, columns, self.uids + other.uids),
            name=name or f"{self.name}+{other.name}",
        )

    def require_non_empty(self) -> "Dataset":
        """Return self, raising :class:`EmptyDatasetError` if there are no rows."""
        if not len(self):
            raise EmptyDatasetError(f"dataset {self.name!r} is empty")
        return self

    # -- export -------------------------------------------------------------

    def to_records(self, include_uid: bool = True) -> List[Dict[str, object]]:
        """Return the dataset as a list of plain dicts (for CSV/JSON export)."""
        names = self.schema.names
        records = []
        for uid, values in self.iter_rows():
            record: Dict[str, object] = {"uid": uid} if include_uid else {}
            record.update(zip(names, values))
            records.append(record)
        return records

    def observed_matrix(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Return an (n, m) float matrix of observed attribute columns.

        ``names`` defaults to every observed attribute in schema order.  This
        is the matrix a linear scoring function multiplies by its weights,
        stacked straight from the contiguous ``float64`` arrays.
        """
        if names is None:
            names = self.schema.observed_names
        if not names:
            return np.zeros((len(self), 0), dtype=float)
        return np.column_stack([self.numeric_column(name) for name in names])

    def summary(self) -> Dict[str, object]:
        """Return a summary dict used by the session layer's General box."""
        return {
            "name": self.name,
            "size": len(self),
            "protected_attributes": list(self.schema.protected_names),
            "observed_attributes": list(self.schema.observed_names),
            "protected_cardinalities": {
                name: len(self.distinct_values(name)) for name in self.schema.protected_names
            },
        }
