"""CSV and JSON file interchange.

Decision matrices travel as one CSV per expert: the first row names the
attributes (first cell is a corner label and is ignored), every other
row is an alternative label followed by its nonnegative scores, and the
expert id is the file stem. Feature sources are plain numeric CSVs with
a header and one row per sample (at least 2), with an optional trailing
``label`` column; their values may be signed. One table reader,
``_read_rows``, checks what both share: the read, at least 2 data rows and
each row's width. One writer, ``_write_csv``, joins each row as it
streams in, and ``_field`` is its one quoting rule for labels; numbers
need none. Every write goes through a new file in the target directory,
created with the umask's mode as ``open`` would, then an atomic rename.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
from pathlib import Path

import numpy as np

from .config import read_json
from .errors import ConfigError, CsvFormatError
from .fusion import FeatureSet
from .linguistic import DecisionMatrix


def _read_rows(path: Path, rows: str):
    """The header's stripped cells, its line and, as the caller walks them,
    the ``(line number, row)`` pairs of a CSV of at least 2 data ``rows``;
    blank lines at the end of the file are dropped, and a row whose width
    differs from the header's is a format error once it is reached. A
    record's line, the header's too, is where it ends in the file."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            table = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not a text file ({exc.reason})") from exc
    except csv.Error as exc:
        raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    while table and not table[-1][1]:
        table.pop()
    if len(table) < 3:
        raise CsvFormatError(f"{path}: need a header and at least 2 {rows}")
    header = [cell.strip() for cell in table[0][1]]

    def data():
        for line_no, row in table[1:]:
            if len(row) != len(header):
                raise CsvFormatError(f"{path}:{line_no}: row has {len(row)} cells, header has {len(header)}")
            yield line_no, row

    return header, table[0][0], data()


def _parse_cell(text: str, path: Path, line: int, column: int, kind: str | None = None) -> float:
    """A finite float; a ``"score"`` must also be nonnegative and a ``"label"`` an integer
    below 2**53 in magnitude, so that labels read as distinct int64 values."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        expected = "a finite number"
    elif kind is None:  # a plain number, the common case, tested first
        return value
    elif kind == "score" and value < 0:
        expected = "a nonnegative score"
    elif kind == "label" and not value.is_integer():
        expected = "an integer label"
    elif kind == "label" and abs(value) >= 2**53:  # where floats stop holding every integer
        expected = "an integer label below 2**53 in magnitude"
    else:
        return value
    raise CsvFormatError(f"{path}:{line}:{column}: expected {expected}, got {text!r}")


def read_decision_matrix(path: str | Path) -> DecisionMatrix:
    path = Path(path)
    header, header_line, rows = _read_rows(path, "alternatives")
    if len(header) < 2:
        raise CsvFormatError(f"{path}:{header_line}: header must name at least one attribute")
    attributes = {}  # attribute -> column number
    for col, name in enumerate(header[1:], start=2):
        if name in attributes:
            raise CsvFormatError(
                f"{path}:{header_line}:{col}: attribute {name!r} repeats column {attributes[name]}"
            )
        attributes[name] = col
    labels = {}  # label -> line number
    values = []
    for line_no, row in rows:
        label = row[0].strip()
        if label in labels:
            raise CsvFormatError(
                f"{path}:{line_no}:1: alternative {label!r} repeats line {labels[label]}"
            )
        labels[label] = line_no
        values.append(
            [_parse_cell(cell, path, line_no, col, "score") for col, cell in enumerate(row[1:], start=2)]
        )
    return DecisionMatrix(path.stem, np.asarray(values), tuple(labels), tuple(attributes))


def _row_count_error(path, count: int, first_path, first_count: int, rows: str) -> CsvFormatError:
    """A file whose data rows outnumber the first file's, at its first extra
    row, or fall short of them, at its last row."""
    line = first_count + 2 if count > first_count else count + 1
    return CsvFormatError(f"{path}:{line}: {count} {rows}, {first_path} has {first_count}")


def read_decision_matrices(paths) -> list[DecisionMatrix]:
    """One matrix per expert file, each on the first file's attributes and
    alternatives, in order; a file that differs is a format error at its
    first differing line, and so is a file whose stem (the expert id)
    repeats an earlier file's."""
    matrices = [read_decision_matrix(path) for path in paths]
    first, first_path = matrices[0], paths[0]
    seen = {first.expert_id: first_path}
    for path, m in zip(paths[1:], matrices[1:]):
        if m.expert_id in seen:
            raise CsvFormatError(f"{path}:1: expert id {m.expert_id!r} (the file stem) repeats {seen[m.expert_id]}")
        seen[m.expert_id] = path
        if m.attribute_labels != first.attribute_labels:
            raise CsvFormatError(
                f"{path}:1: attributes {list(m.attribute_labels)}, "
                f"{first_path} has {list(first.attribute_labels)}"
            )
        ours, theirs = m.alternative_labels, first.alternative_labels
        for i, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                raise CsvFormatError(f"{path}:{i + 2}:1: alternative {a!r}, {first_path} has {b!r}")
        if len(ours) != len(theirs):
            raise _row_count_error(path, len(ours), first_path, len(theirs), "alternatives")
    return matrices


def _field(label: str) -> str:
    """``label`` as a CSV field: quoted, with its quotes doubled, where it holds
    a comma, a quote, a CR or an LF (RFC 4180), and as it is otherwise.
    ``csv.reader`` reads it back unchanged: no other character, U+0085 and
    U+2028 included, ends a line there."""
    if any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


def _write_csv(path: str | Path, rows) -> None:
    """``rows`` of ready fields (labels through ``_field``), each joined and
    written as it comes, ending in a newline."""
    with _atomic_open(path) as handle:
        for row in rows:
            handle.write(",".join(row) + "\n")


def write_decision_matrix(path: str | Path, matrix: DecisionMatrix) -> None:
    """The matrix as ``read_decision_matrix`` reads it back. That reader strips
    each label, so a label with white space at an edge (a trailing CR
    included) is refused with ``ValueError`` before anything is written."""
    for label in (*matrix.alternative_labels, *matrix.attribute_labels):
        if label != label.strip():
            raise ValueError(f"label {label!r} has white space at an edge, which reading would strip")
    _write_csv(path, itertools.chain(
        [["alternative", *map(_field, matrix.attribute_labels)]],
        ([_field(label), *(f"{v:.17g}" for v in row)] for label, row in zip(matrix.alternative_labels, matrix.values)),
    ))


def read_feature_source(path: str | Path, source_id: str | None = None) -> FeatureSet:
    path = Path(path)
    header, header_line, rows = _read_rows(path, "samples")
    width = len(header)
    has_labels = width > 0 and header[-1].lower() == "label"
    n_features = width - 1 if has_labels else width
    if n_features < 1:
        raise CsvFormatError(f"{path}:{header_line}: no feature columns")
    features = []
    labels = []
    for line_no, row in rows:
        features.append(
            [_parse_cell(cell, path, line_no, col) for col, cell in enumerate(row[:n_features], start=1)]
        )
        if has_labels:
            labels.append(int(_parse_cell(row[-1], path, line_no, width, "label")))
    return FeatureSet(
        source_id or path.stem,
        np.asarray(features),
        np.asarray(labels) if has_labels else None,
    )


def read_feature_sources(entries: list[dict]) -> list[FeatureSet]:
    """One source per manifest entry (``{"path", "id"}``), each with the
    first source's dimensions and samples, and each labelled one with the
    first labelled source's labels; a file that differs is a format error
    at its header, at its first unmatched sample line or at its first
    differing label."""
    sources = [read_feature_source(entry["path"], entry["id"]) for entry in entries]
    first, first_path = sources[0], entries[0]["path"]
    labelled = [(entry["path"], s.labels) for entry, s in zip(entries, sources) if s.labels is not None]
    for entry, s in zip(entries[1:], sources[1:]):
        if s.n_dims != first.n_dims:
            raise CsvFormatError(f"{entry['path']}:1: {s.n_dims} feature columns, {first_path} has {first.n_dims}")
        if s.n_samples != first.n_samples:
            raise _row_count_error(entry["path"], s.n_samples, first_path, first.n_samples, "samples")
        if s.labels is not None:
            labels_path, labels = labelled[0]
            differ = np.flatnonzero(s.labels != labels)
            if differ.size:
                i = int(differ[0])
                raise CsvFormatError(
                    f"{entry['path']}:{i + 2}:{s.n_dims + 1}: label {s.labels[i]}, {labels_path} has {labels[i]}"
                )
    return sources


def write_feature_source(path: str | Path, source: FeatureSet) -> None:
    header = [f"f{j}" for j in range(source.n_dims)]
    rows = ([f"{v:.17g}" for v in row] for row in source.features)
    if source.labels is not None:
        header.append("label")
        rows = ([*cells, str(int(label))] for cells, label in zip(rows, source.labels))
    _write_csv(path, itertools.chain([header], rows))


def write_term_values(path: str | Path, values, alternative_labels, attribute_labels) -> None:
    """Long-format dump of a (p, q, terms) tensor for golden-test diffing."""
    arr = np.asarray(values)
    p, q, terms = arr.shape
    alternatives, attributes = list(map(_field, alternative_labels)), list(map(_field, attribute_labels))
    _write_csv(path, itertools.chain([["alt", "attr", "term", "value"]], (
        [alternatives[i], attributes[j], str(f + 1), f"{arr[i, j, f]:.17g}"]
        for i in range(p) for j in range(q) for f in range(terms)
    )))


def read_manifest(path: str | Path) -> tuple[list[dict], dict]:
    """Feature-fusion manifest: {"sources": [{"id", "path"}...], "config": {...}}.

    A source's id defaults to its file stem; ids must be distinct
    nonempty strings, which is checked before any source is read.
    """
    path = Path(path)
    data = read_json(path, "manifest")
    if not isinstance(data, dict) or "sources" not in data:
        raise ConfigError(f"manifest {path} must be an object with a 'sources' list")
    sources = data["sources"]
    if not isinstance(sources, list) or not sources:
        raise ConfigError(f"manifest {path}: 'sources' must be a nonempty list")
    resolved = []
    seen = {}  # id -> 1-based source number
    for n, entry in enumerate(sources, start=1):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise ConfigError(f"manifest {path}: each source needs a 'path' string")
        source_path = path.parent / entry["path"]  # an absolute path replaces the parent
        source_id = entry.get("id", source_path.stem)
        if not isinstance(source_id, str) or not source_id:
            raise ConfigError(f"manifest {path}: source {n} id {source_id!r} is not a nonempty string")
        if source_id in seen:
            raise ConfigError(f"manifest {path}: sources {seen[source_id]} and {n} share the id {source_id!r}")
        seen[source_id] = n
        resolved.append({"id": source_id, "path": source_path})
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError(f"manifest {path}: 'config' must be an object")
    return resolved, config


@contextlib.contextmanager
def _atomic_open(path: str | Path):
    """A text handle on a new file beside ``path``, renamed over ``path`` when the
    block ends and removed if it raises. Mode ``"x"`` creates it only under a
    name that no other writer holds, with mode 0666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    handle = open(tmp, "x")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)
