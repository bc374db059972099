"""Operations of the three workloads, drawn from a seed, and their output checks.

An operation is one ``heatframe.cli.main`` call: a ``verify`` verdict or one
export subcommand.  Each workload is a fixed list of operations drawn from
the workload seed; a run cycles through the list.
"""
from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

SWEEP_NODES = (64, 96, 128, 160, 192)
SWEEP_WEIGHTS = (-0.5, 0.0, 0.5, 1.5, 3.0)
SWEEP_DELTAS = (0.1, 0.2, 0.4)
SWEEP_TIMES = (0.1, 0.5, 1.0)
SWEEP_REPEATS = 3  # each node count this many times per list, so every list has the same size mix

KERNEL_ROWS_CHECKED = 4
KERNEL_ROW_TOL = 1e-8


@dataclass
class Operation:
    command: str
    gamma: float
    alpha: float
    nodes: int
    degree: int
    seed: int
    delta: float = 0.2
    t: float = 0.5
    out: str | None = None
    rows: tuple[int, ...] = ()  # kernel rows whose integrals are checked

    def argv(self) -> list[str]:
        argv = [
            self.command,
            "--gamma", repr(self.gamma),
            "--alpha", repr(self.alpha),
            "--nodes", str(self.nodes),
            "--degree", str(self.degree),
            "--delta", repr(self.delta),
            "--t", repr(self.t),
            "--seed", str(self.seed),
        ]
        if self.out is not None:
            argv += ["--out", self.out]
        return argv

    @property
    def refine_nodes(self) -> int | None:
        """Node count of the doubled-resolution space ``verify`` builds."""
        return 2 * self.nodes if self.command == "verify" else None

    @property
    def largest_nodes(self) -> int:
        return self.refine_nodes or self.nodes


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def verify_large(rng: random.Random, out_dir: str) -> list[Operation]:
    return [Operation("verify", 0.0, 0.0, 1024, 800, _op_seed(rng)) for _ in range(2)]


def verify_sweep(rng: random.Random, out_dir: str) -> list[Operation]:
    nodes = [n for n in SWEEP_NODES for _ in range(SWEEP_REPEATS)]
    rng.shuffle(nodes)
    return [
        Operation(
            "verify",
            rng.choice(SWEEP_WEIGHTS),
            rng.choice(SWEEP_WEIGHTS),
            n,
            math.floor(0.8 * n),
            _op_seed(rng),
            delta=rng.choice(SWEEP_DELTAS),
            t=rng.choice(SWEEP_TIMES),
        )
        for n in nodes
    ]


def export(rng: random.Random, out_dir: str) -> list[Operation]:
    kernel_rows = tuple(sorted(rng.sample(range(512), KERNEL_ROWS_CHECKED)))
    return [
        Operation("kernel", 0.0, 0.0, 512, 400, _op_seed(rng),
                  out=os.path.join(out_dir, "kernel.csv"), rows=kernel_rows),
        Operation("net", 0.0, 0.0, 1024, 40, _op_seed(rng), delta=0.05,
                  out=os.path.join(out_dir, "net.json")),
        Operation("decompose", 0.0, 0.0, 1024, 800, _op_seed(rng), delta=0.05,
                  out=os.path.join(out_dir, "decomposition.csv")),
    ]


WORKLOADS = {
    "verify_large": verify_large,
    "verify_sweep": verify_sweep,
    "export": export,
}


# -- output checks -----------------------------------------------------------


def _gauss_weights(gamma: float, alpha: float, n: int) -> np.ndarray:
    """Quadrature weights from scipy's rule, independent of heatframe's refinement."""
    x, w = roots_jacobi(n, gamma, alpha)
    return w[np.argsort(x)]


def check(op: Operation, rc: int, stdout: str) -> str | None:
    """Return why the operation's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    if op.command == "verify":
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"document does not parse: {exc}"
        return None if doc.get("gated_passed") is True else "gated_passed is not true"
    if op.command == "kernel":
        return _check_kernel(op)
    if op.command == "net":
        match = re.search(r"\((\d+) centers\)", stdout)
        if match is None:
            return "no center count on stdout"
        from heatframe.nets import load_net

        net = load_net(op.out)
        if len(net.centers) != int(match.group(1)):
            return f"{len(net.centers)} centers saved, {match.group(1)} printed"
        return None
    if op.command == "decompose":
        match = re.search(r"\((\d+) blocks, (\d+) centers\)", stdout)
        if match is None:
            return "no block and center counts on stdout"
        with open(op.out, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        expected = int(match.group(1)) * int(match.group(2))
        return None if rows == expected else f"{rows} coefficient rows, expected {expected}"
    return f"unknown command {op.command}"


def _check_kernel(op: Operation) -> str | None:
    n = op.nodes
    with open(op.out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n * n + 1:
        return f"{len(lines)} lines, expected {n * n + 1}"
    weights = _gauss_weights(op.gamma, op.alpha, n)
    for i in op.rows:
        block = lines[1 + i * n : 1 + (i + 1) * n]
        if any(not line.startswith(f"{i},") for line in block):
            return f"row {i} is not contiguous"
        integral = float(sum(float(line.rsplit(",", 1)[1]) * w for line, w in zip(block, weights)))
        if abs(integral - 1.0) > KERNEL_ROW_TOL:
            return f"row {i} integrates to {integral!r}"
    return None
