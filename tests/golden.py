"""Digests of the outputs that a bit-identical change must keep.

    python tests/golden.py --digest

prints one ``<sha256>  <output>`` line per output, in a fixed order:

* ``fusion-wide`` seeds 0-3 (the four pool items of each seed, 3 sources x
  240 samples x 256 dims): ``evaluate_fusion``'s block weights, weights,
  fused features, kappa and macro accuracy, at ``sample_cap`` 240 and at
  the default cap;
* ``many-experts`` seeds 1-3 (three pool items of 64 experts x 200 x 8
  each): ``run_pipeline``'s divergence matrix, weights and ranking order;
* the bundled recruitment study and ``many-experts`` seed 1, item 0 at
  5, 7 and 9 terms and at pair weights (1/2, 1/2) and (0.8, 0.2):
  ``run_pipeline``'s beliefs, divergence matrix, weights and ranking
  order. Everything else runs at 5 terms and (1/2, 1/2);
* the ``pairwise_divergence`` table of seeded profiles of 8 experts x 40 x 5
  with about 1 % empty cells and a tenth of the cells 10 times larger: the
  one digest whose pairs hold empty and wide cells, so ``js_cells`` takes
  its checked path and its direct form;
* the bytes that ``write_decision_matrix`` and ``write_term_values`` write
  for labels holding a comma, a quote, a CR, an LF, inner spaces and
  nothing;
* ``verify-paper --json`` stdout;
* ``fuse-features --json`` on the seed-0 manifest of three synthetic
  sources: ``fused.csv``, ``metrics.json`` and stdout;
* ``rank --dump-intermediates --json`` on the four bundled recruitment
  CSVs: ``report.json``, ``report.md``, each expert's membership and mass
  dump (17 significant digits) and stdout. The command runs in the data
  directory on the bare file names, because the report and stdout echo
  the input paths: the digests do not depend on where the script runs.

Arrays are hashed with their dtype and shape, so a change of layout that
keeps every value keeps the digest. Run it at two commits on one host and
``diff`` the outputs: an empty diff is the bit-identity check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from evidential_magdm import cli, dataio, recruitment
from evidential_magdm.config import RunConfig
from evidential_magdm.fusion import evaluate_fusion, make_synthetic_sources
from evidential_magdm.linguistic import DecisionMatrix
from evidential_magdm.pipeline import pairwise_divergence, run_pipeline


def digest(value) -> str:
    """sha256 of an array's dtype, shape and bytes, of bytes as they are, or of any other value's JSON."""
    if isinstance(value, np.ndarray):
        data = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    elif isinstance(value, bytes):
        data = value
    else:
        data = json.dumps(value).encode()
    return hashlib.sha256(data).hexdigest()


def fusion_wide():
    for seed in range(4):
        for item in range(4):
            sources = make_synthetic_sources(seed * 4 + item, n_dims=256)
            for cap, config in (("cap240", RunConfig(sample_cap=240)), ("default-cap", RunConfig())):
                weights, fused, metrics = evaluate_fusion(sources, config)
                name = f"fusion-wide/seed{seed}/item{item}/{cap}"
                yield f"{name}/block_weights", weights.block_weights
                yield f"{name}/weights", weights.weights
                yield f"{name}/fused", fused.features
                yield f"{name}/kappa", metrics.kappa
                yield f"{name}/macro_accuracy", metrics.macro["accuracy"]


def many_experts_groups(seed: int):
    """The pool items of one ``many-experts`` seed: 64 experts x 200 x 8 each."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        yield [DecisionMatrix(f"e{e:02d}", rng.uniform(1.0, 100.0, size=(200, 8))) for e in range(64)]


def many_experts():
    for seed in (1, 2, 3):
        for item, group in enumerate(many_experts_groups(seed)):
            result = run_pipeline(group)
            name = f"many-experts/seed{seed}/item{item}"
            yield f"{name}/dmm", result.dmm
            yield f"{name}/weights", result.weights.weights
            yield f"{name}/ranking_order", list(result.ranking.order)


def term_counts():
    """Every term count and both kernels: the sort network and the pair
    kernel at unequal weights run nowhere else in these digests."""
    studies = (
        ("recruitment", recruitment.decision_matrices()),
        ("many-experts/seed1/item0", next(many_experts_groups(1))),
    )
    for study, group in studies:
        for terms in (5, 7, 9):
            for pair_weights in ((0.5, 0.5), (0.8, 0.2)):
                name = f"terms/{study}/terms{terms}/pair{pair_weights[0]}-{pair_weights[1]}"
                result = run_pipeline(group, RunConfig(terms=terms, pair_weights=pair_weights))
                yield f"{name}/beliefs", result.beliefs
                yield f"{name}/dmm", result.dmm
                yield f"{name}/weights", result.weights.weights
                yield f"{name}/ranking_order", list(result.ranking.order)


def checked_paths():
    """The pair kernel's checked path and the CSV writers' quoting, which no
    bundled or workload output reaches."""
    rng = np.random.default_rng(11)
    profiles = rng.uniform(0.5, 1.0, size=(8, 40, 5))
    profiles[rng.random(profiles.shape) < 0.1] *= 10.0
    profiles[rng.random(profiles.shape) < 0.01] = 0.0
    pairs = zip(*np.triu_indices(8, 1))
    yield "checked/pairwise_divergence", np.array([pairwise_divergence(profiles[i], profiles[j]) for i, j in pairs])
    alternatives = ("a,b", 'say "hi"', "cr\rin", "lf\nin", "crlf\r\nin", "inner  spaces", "")
    attributes = ("x,y", '"', "")
    matrix = DecisionMatrix("labels", np.arange(21.0).reshape(7, 3) / 7, alternatives, attributes)
    with tempfile.TemporaryDirectory() as tmp:
        dataio.write_decision_matrix(Path(tmp) / "matrix.csv", matrix)
        yield "writers/decision_matrix.csv", (Path(tmp) / "matrix.csv").read_bytes()
        terms = np.arange(42.0).reshape(7, 3, 2) / 3
        dataio.write_term_values(Path(tmp) / "terms.csv", terms, alternatives, attributes)
        yield "writers/term_values.csv", (Path(tmp) / "terms.csv").read_bytes()


def command(argv: list[str]) -> bytes:
    """``evidential-magdm`` stdout, run in process; a nonzero exit stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return out.getvalue().encode()


def cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        yield "verify-paper/stdout", command(["verify-paper", "--json", "--out", str(tmp / "verify")])
        manifest = {"sources": []}
        for source in make_synthetic_sources(0):
            dataio.write_feature_source(tmp / f"{source.source_id}.csv", source)
            manifest["sources"].append({"id": source.source_id, "path": f"{source.source_id}.csv"})
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        stdout = command(["fuse-features", str(tmp / "manifest.json"), "--json", "--out", str(tmp / "out")])
        yield "fuse-features/fused.csv", (tmp / "out" / "fused.csv").read_bytes()
        yield "fuse-features/metrics.json", (tmp / "out" / "metrics.json").read_bytes()
        yield "fuse-features/stdout", stdout
        here = os.getcwd()
        os.chdir(recruitment.DATA_DIR)
        try:
            names = [f"{e}.csv" for e in recruitment.EXPERT_IDS]
            stdout = command(["rank", *names, "--dump-intermediates", "--json", "--out", str(tmp / "rank")])
        finally:
            os.chdir(here)
        outputs = ["report.json", "report.md"]
        outputs += [f"{e}_{kind}.csv" for e in recruitment.EXPERT_IDS for kind in ("memberships", "masses")]
        for output in outputs:
            yield f"rank/{output}", (tmp / "rank" / output).read_bytes()
        yield "rank/stdout", stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digest", action="store_true", help="print one sha256 per output")
    args = parser.parse_args(argv)
    if not args.digest:
        parser.error("nothing to do: pass --digest")
    for outputs in (fusion_wide(), many_experts(), term_counts(), checked_paths(), cli_outputs()):
        for name, value in outputs:
            print(f"{digest(value)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
