"""Report assembly and deterministic serialisation.

JSON reports keep full float precision with sorted keys; the markdown
summary rounds everything to six decimals. Identical inputs and
configuration therefore produce byte-identical files.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .pipeline import PipelineResult


def _listify(arr) -> list:
    return np.asarray(arr).tolist()


def pipeline_report(result: PipelineResult, include_intermediates: bool = False) -> dict:
    report = {
        "config": result.config.to_dict(),
        "experts": list(result.expert_ids),
        "alternatives": list(result.alternative_labels),
        "attributes": list(result.attribute_labels),
        "owa_weights": {"scheme": result.owa.scheme, "values": _listify(result.owa.values)},
        "belief": {
            e: _listify(b) for e, b in zip(result.expert_ids, result.beliefs)
        },
        "plausibility": {
            e: _listify(p) for e, p in zip(result.expert_ids, result.plausibilities)
        },
        "pairwise_divergence": {
            "pairs": ["|".join(pair) for pair in result.pair_ids],
            "per_alternative": _listify(result.pair_divergences),
            "aggregate": _listify(result.dmm[np.triu_indices(len(result.expert_ids), 1)]),
        },
        "divergence_matrix": _listify(result.dmm),
        "average_divergence": _listify(result.weights.averages),
        "supports": _listify(result.weights.supports),
        "weights": _listify(result.weights.weights),
        "expert_ranking": list(result.weights.ranking()),
    }
    if result.ranking is not None:
        report.update(
            {
                "normalized": {e: _listify(m) for e, m in zip(result.expert_ids, result.normalized)},
                "fused": _listify(result.ranking.fused),
                "ideal": _listify(result.ranking.ideal),
                "scores": _listify(result.ranking.scores),
                "ranking": list(result.ranking.ranked_labels()),
            }
        )
    if include_intermediates:
        ids = result.expert_ids
        p = len(result.alternative_labels)
        report["memberships"] = {e: _listify(d.reshape(p, -1)) for e, d in zip(ids, result.memberships.degrees)}
        report["bpa"] = {e: _listify(m.reshape(p, -1)) for e, m in zip(ids, result.bpa_tensors.masses)}
        report["wpbl"] = {e: _listify(w) for e, w in zip(ids, result.wpbl_profiles)}
        zero = result.bpa_tensors.zero_columns
        report["zero_bpa_columns"] = {e: [[j, f] for i, j, f in zero if i == n] for n, e in enumerate(ids)}
    return report


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _f6(value: float) -> str:
    return f"{value:.6f}"


def one_line(text: str) -> str:
    """``text`` (an id or a label) with each line break folded to one space."""
    return re.sub(r"\r\n?|\n", " ", text)


def _cell(text: str) -> str:
    """A table cell: ``one_line`` with ``|`` escaped."""
    return one_line(text).replace("|", "\\|")


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """A markdown table, one line per row."""
    lines = ["| " + " | ".join(map(_cell, headers)) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(map(_cell, row)) + " |")
    return lines


def render_markdown(report: dict) -> str:
    """Human-readable summary of a pipeline report, 6-decimal formatting."""
    experts = report["experts"]
    lines = ["# Group decision report", ""]
    cfg = report["config"]
    lines.append(
        f"Config: terms={cfg['terms']}, owa={report['owa_weights']['scheme']}, "
        f"pair weights={cfg['pair_weights']}, wpbl axis={cfg['wpbl_axis']}"
    )
    lines.append("")
    lines.append("## Expert weights")
    lines.extend(
        _table(
            ["expert", "average divergence", "support", "weight"],
            [
                [
                    e,
                    _f6(report["average_divergence"][i]),
                    _f6(report["supports"][i]),
                    _f6(report["weights"][i]),
                ]
                for i, e in enumerate(experts)
            ],
        )
    )
    lines.append("")
    lines.append("Expert ranking: " + " > ".join(map(one_line, report["expert_ranking"])))
    if "ranking" in report:
        lines.append("")
        lines.append("## Alternatives")
        scores = report["scores"]
        order = {label: pos + 1 for pos, label in enumerate(report["ranking"])}
        rows = []
        for i, label in enumerate(report["alternatives"]):
            fused_cells = [_f6(v) for v in report["fused"][i]]
            rows.append([label, *fused_cells, _f6(scores[i]), str(order[label])])
        lines.extend(
            _table(["alternative", *report["attributes"], "score", "rank"], rows)
        )
        lines.append("")
        lines.append(
            "Ideal solution: "
            + ", ".join(_f6(v) for v in report["ideal"])
        )
        lines.append("Ranking: " + " > ".join(map(one_line, report["ranking"])))
    lines.append("")
    return "\n".join(lines)
