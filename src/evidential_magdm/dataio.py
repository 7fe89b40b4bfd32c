"""CSV and JSON file interchange.

Decision matrices travel as one CSV per expert: the first row names the
attributes (first cell is a corner label and is ignored), every other
row is an alternative label followed by its nonnegative scores, and the
expert id is the file stem. Feature sources are plain numeric CSVs with
a header and one row per sample (at least 2), with an optional trailing
``label`` column; their values may be signed. All writes go through a
temp file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, CsvFormatError
from .fusion import FeatureSet
from .linguistic import DecisionMatrix


def _read_rows(path: Path) -> list[list[str]]:
    """All CSV rows; blank lines at the end of the file are dropped."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not a text file ({exc.reason})") from exc
    except csv.Error as exc:
        raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _parse_cell(text: str, path: Path, line: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CsvFormatError(f"{path}:{line}:{column}: expected a finite number, got {text!r}")
    return value


def _parse_score(text: str, path: Path, line: int, column: int) -> float:
    value = _parse_cell(text, path, line, column)
    if value < 0:
        raise CsvFormatError(f"{path}:{line}:{column}: expected a nonnegative score, got {text!r}")
    return value


def _parse_label(text: str, path: Path, line: int, column: int) -> int:
    value = _parse_cell(text, path, line, column)
    if not value.is_integer():
        raise CsvFormatError(f"{path}:{line}:{column}: expected an integer label, got {text!r}")
    return int(value)


def read_decision_matrix(path: str | Path) -> DecisionMatrix:
    path = Path(path)
    rows = _read_rows(path)
    if len(rows) < 3:
        raise CsvFormatError(f"{path}: need a header and at least 2 alternatives")
    header = rows[0]
    if len(header) < 2:
        raise CsvFormatError(f"{path}:1: header must name at least one attribute")
    attributes = {}  # attribute -> column number
    for col, cell in enumerate(header[1:], start=2):
        name = cell.strip()
        if name in attributes:
            raise CsvFormatError(
                f"{path}:1:{col}: attribute {name!r} repeats column {attributes[name]}"
            )
        attributes[name] = col
    labels = {}  # label -> line number
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}:{line_no}: row has {len(row)} cells, header has {len(header)}"
            )
        label = row[0].strip()
        if label in labels:
            raise CsvFormatError(
                f"{path}:{line_no}:1: alternative {label!r} repeats line {labels[label]}"
            )
        labels[label] = line_no
        values.append(
            [_parse_score(cell, path, line_no, col) for col, cell in enumerate(row[1:], start=2)]
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


def write_decision_matrix(path: str | Path, matrix: DecisionMatrix) -> None:
    lines = ["alternative," + ",".join(matrix.attribute_labels)]
    for label, row in zip(matrix.alternative_labels, matrix.values):
        lines.append(label + "," + ",".join(f"{v:.17g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_feature_source(path: str | Path, source_id: str | None = None) -> FeatureSet:
    path = Path(path)
    rows = _read_rows(path)
    if len(rows) < 3:
        raise CsvFormatError(f"{path}: need a header and at least 2 samples")
    header = [cell.strip() for cell in rows[0]]
    has_labels = bool(header) and header[-1].lower() == "label"
    width = len(header)
    n_features = width - 1 if has_labels else width
    if n_features < 1:
        raise CsvFormatError(f"{path}:1: no feature columns")
    features = []
    labels = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}:{line_no}: row has {len(row)} cells, header has {width}"
            )
        features.append(
            [_parse_cell(cell, path, line_no, col) for col, cell in enumerate(row[:n_features], start=1)]
        )
        if has_labels:
            labels.append(_parse_label(row[-1], path, line_no, width))
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
    if source.labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i in range(source.n_samples):
        cells = [f"{v:.17g}" for v in source.features[i]]
        if source.labels is not None:
            cells.append(str(int(source.labels[i])))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_term_values(path: str | Path, expert_id: str, values, alternative_labels,
                      attribute_labels) -> None:
    """Long-format dump of a (p, q, terms) tensor for golden-test diffing."""
    arr = np.asarray(values)
    lines = ["alt,attr,term,value"]
    p, q, terms = arr.shape
    for i in range(p):
        for j in range(q):
            for f in range(terms):
                lines.append(
                    f"{alternative_labels[i]},{attribute_labels[j]},{f + 1},"
                    f"{arr[i, j, f]:.17g}"
                )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> tuple[list[dict], dict]:
    """Feature-fusion manifest: {"sources": [{"id", "path"}...], "config": {...}}.

    A source's id defaults to its file stem; ids must be distinct
    nonempty strings, which is checked before any source is read.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
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
        source_path = Path(entry["path"])
        if not source_path.is_absolute():
            source_path = path.parent / source_path
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


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
