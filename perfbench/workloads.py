"""The benchmark's workloads.

Each workload makes a small pool of distinct inputs from the seed, runs
one op per input in turn, checks every op's output, and states the
exact per-op counts a traced run must see: ``run_pipeline`` and
``owa_weights`` calls, ``pairwise_divergence`` calls (one per expert
pair) and the divergence cells (pairs x alternatives x attributes).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from evidential_magdm import cli, dataio, fusion, pipeline
from evidential_magdm.config import RunConfig
from evidential_magdm.linguistic import DecisionMatrix
from evidential_magdm.recruitment import EXPERT_IDS

from tracing import CELLS

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"  # everything a run writes goes here
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    "TMPDIR": str(OUT),
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def counts(run_pipeline: int, pairs: int, cells: int) -> dict[str, int]:
    """Exact per-op counts; ``owa_weights`` runs once per pipeline run."""
    return {
        "pipeline.run_pipeline": run_pipeline,
        "pipeline.owa_weights": run_pipeline,
        "pipeline.pairwise_divergence": pairs,
        CELLS: cells,
    }


@dataclass
class Process:
    """A finished child interpreter: wall time, exit code, stdout, own peak RSS."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float


def run_process(argv: list[str]) -> Process:
    """Run ``python <argv>`` in a fresh process and wait for it to end."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, *argv], env=CHILD_ENV, stdout=subprocess.PIPE, stderr=err) as proc:
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        err.seek(0)
        return Process(wall, proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss / 1024)


class Workload:
    name = ""

    def pool(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def label(self, item) -> str:
        """Group name of an input; ``cli-cold`` groups its ops by command."""
        return "op"

    def run(self, item):
        raise NotImplementedError

    def run_in_process(self, item):
        """The op as the traced run executes it."""
        return self.run(item)

    def check(self, item, output) -> dict:
        """Raise ``CheckFailed`` on a wrong output; return facts that must repeat exactly."""
        raise NotImplementedError

    def expected(self, item) -> dict[str, int]:
        raise NotImplementedError


class ManyExperts(Workload):
    """``run_pipeline`` at k=64 experts, p=200 alternatives, q=8 attributes."""

    name = "many-experts"
    k, p, q = 64, 200, 8

    def pool(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return [
            [DecisionMatrix(f"e{e:02d}", rng.uniform(1.0, 100.0, size=(self.p, self.q))) for e in range(self.k)]
            for _ in range(3)
        ]

    def run(self, item):
        return pipeline.run_pipeline(item)

    def check(self, item, output):
        weights = output.weights.weights
        require(abs(weights.sum() - 1.0) <= 1e-9, f"expert weights sum to {weights.sum()!r}")
        dmm = output.dmm
        require(dmm.shape == (self.k, self.k), f"divergence matrix shape {dmm.shape}")
        require(np.array_equal(dmm, dmm.T), "divergence matrix is not symmetric")
        require(not np.any(np.diag(dmm)), "divergence matrix diagonal is not zero")
        require(sorted(output.ranking.order) == list(range(self.p)), "ranking is not a permutation")
        require(sorted(output.weights.ranking()) == [m.expert_id for m in item], "expert ranking is not a permutation")
        return {"weights": weights.tolist(), "order": output.ranking.order}

    def expected(self, item):
        pairs = self.k * (self.k - 1) // 2
        return counts(1, pairs, pairs * self.p * self.q)


class FusionWide(Workload):
    """``evaluate_fusion`` on 3 sources x 240 samples x 256 dims: 32 blocks of k=3."""

    name = "fusion-wide"
    n_dims, samples = 256, 240
    config = RunConfig(sample_cap=240)

    def pool(self, seed, workdir):
        return [fusion.make_synthetic_sources(seed * 4 + i, n_dims=self.n_dims) for i in range(4)]

    def run(self, item):
        return fusion.evaluate_fusion(item, self.config)

    def check(self, item, output):
        weights, _, metrics = output
        by_source = dict(zip(weights.expert_ids, weights.weights.tolist()))
        require(abs(sum(by_source.values()) - 1.0) <= 1e-9, f"source weights sum to {sum(by_source.values())!r}")
        require(
            by_source["informative"] > by_source["pure-noise"],
            f"informative weight {by_source['informative']} <= pure-noise weight {by_source['pure-noise']}",
        )
        return {"weights": by_source, "macro_accuracy": metrics.macro["accuracy"], "kappa": metrics.kappa}

    def expected(self, item):
        blocks = self.n_dims // self.config.block_size
        return counts(blocks, blocks * 3, blocks * 3 * self.samples * self.config.block_size)


class CliCold(Workload):
    """Fresh ``python -m evidential_magdm`` processes, cycling over the three commands."""

    name = "cli-cold"
    commands = ("verify_paper", "rank", "fuse_features")

    def pool(self, seed, workdir):
        manifest = {"sources": []}
        for source in fusion.make_synthetic_sources(seed):
            dataio.write_feature_source(workdir / f"{source.source_id}.csv", source)
            manifest["sources"].append({"id": source.source_id, "path": f"{source.source_id}.csv"})
        (workdir / "manifest.json").write_text(json.dumps(manifest))
        bundled = Path(dataio.__file__).parent / "data" / "recruitment"
        out = ["--json", "--out", str(workdir / "out")]
        return [
            ("verify_paper", ["verify-paper", *out]),
            ("rank", ["rank", *(str(bundled / f"{e}.csv") for e in EXPERT_IDS), *out]),
            ("fuse_features", ["fuse-features", str(workdir / "manifest.json"), *out]),
        ]

    def label(self, item):
        return item[0]

    def run(self, item):
        return run_process(["-m", "evidential_magdm", *item[1]])

    def run_in_process(self, item):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli.main(item[1])
        return Process(0.0, code, stdout.getvalue(), "", 0.0)

    def check(self, item, output):
        require(output.returncode == 0, f"{item[0]} exited {output.returncode}: {output.stderr.strip()}")
        try:
            payload = json.loads(output.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{item[0]} --json stdout does not parse: {exc}") from exc
        if item[0] == "verify_paper":
            require(payload["all_passed"] is True, "verify-paper reports failing checks")
            return {c["name"]: c["delta"] for c in payload["checks"]}
        weights = payload["weights"]
        require(abs(sum(weights) - 1.0) <= 1e-9, f"{item[0]} weights sum to {sum(weights)!r}")
        return {"weights": weights}

    def expected(self, item):
        if item[0] == "fuse_features":
            config = RunConfig()
            return counts(1, 3, 3 * config.sample_cap * config.block_size)
        return counts(1, 6, 6 * 17 * 2)


WORKLOADS = {w.name: w for w in (ManyExperts(), FusionWide(), CliCold())}
