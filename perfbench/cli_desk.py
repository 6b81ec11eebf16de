"""cli-desk: one ``python -m klbp.cli`` subprocess at a time.

How command-line users see the engine, and the only workload that
measures the ``cli`` layer and import cost.  Set-up writes desk instances
with ``klbp gen``; a round runs every subcommand that reads an instance.
Each call must exit 0, print strict JSON with ``"pass": true``, and print
the same bytes every time the same command runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from klbp import cli

CALL_TIMEOUT_S = 60
IMPORT_REPEATS = 5  # fresh interpreters timed by import_probe; the metric is their median
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import klbp.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def _num_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliDesk:
    name = "cli-desk"
    min_rounds = 2  # every command runs at least twice, so repeats can be compared

    def __init__(self, seed: int, rec, workdir: Path):
        self.rec = rec
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.static: dict = {}
        self.counters = {"command_ms": [], "startup_ms": [], "report_bytes": []}
        self.first_stdout: dict = {}
        self.commands = self._commands(seed)

    def warm_up(self) -> list:
        return [("cli", self.commands[0])]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _path(self, prefix: str, suffix: str) -> str:
        return str(self.workdir / f"{prefix}.{suffix}.json")

    def _gen(self, *args) -> None:
        # the report and wall time it prints are not needed here
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = self.rec.call("cli.main", cli.main, ["gen", *args])
        if code != 0:
            raise RuntimeError(f"klbp gen {' '.join(args)} exited {code}")

    def _commands(self, seed: int) -> list:
        s = str(seed)
        w = self.workdir
        self._gen("spn", "--seed", s, "--out", str(w / "s"))
        self._gen("fg", "--seed", s, "--out", str(w / "t"))
        self._gen("fg", "--seed", s, "--fg-kind", "cycle", "--out", str(w / "c"))
        self._gen("dag", "--seed", s, "--out", str(w / "d"))
        self._gen("posterior", "--seed", s, "--out", str(w / "m"))
        circuit = ("--circuit", self._path("s", "circuit"))
        evidence = ("--evidence", self._path("s", "evidence"))
        with open(self._path("d", "at"), encoding="utf-8") as fh:
            at_inputs = json.load(fh)["inputs"]
        at = ",".join(f"{k}={float(v)!r}" for k, v in sorted(at_inputs.items()))
        # "--opt=value" keeps argparse from reading a leading minus as an option
        dag = ("--graph", self._path("d", "dag"), f"--at={at}")
        with open(self._path("m", "theta"), encoding="utf-8") as fh:
            theta = _num_list(json.load(fh)["theta"])
        with open(self._path("m", "model"), encoding="utf-8") as fh:
            m = len(json.load(fh)["variables"])
        model = ("--model", self._path("m", "model"), f"--theta={theta}")
        return [
            ("spn", "validate", *circuit),
            ("spn", "eval", *circuit, *evidence),
            ("spn", "marginals", *circuit, *evidence),
            ("spn", "gates", *circuit, *evidence),
            ("spn", "kkt", *circuit, *evidence),
            ("spn", "region", *circuit, *evidence),
            ("spn", "lipschitz", *circuit, "--samples", "20", "--seed", s),
            ("fg", "bp", "--graph", self._path("t", "fg")),
            ("fg", "bp", "--graph", self._path("c", "fg")),
            ("fg", "wr", "--graph", self._path("t", "fg")),
            ("dag", "eval", *dag),
            ("dag", "adjoints", *dag, "--factor", "exp:2.0"),
            ("dag", "gauge", *dag, "--factor", "exp:2.0", "--var", sorted(at_inputs)[0], "--seed", s),
            ("posterior", "grad", *model),
            ("posterior", "dirac", *model, f"--at={','.join('0' * m)}"),
            ("oracle", "compare", "--count", "2", "--seed", s),
        ]

    def round(self, r: int) -> list:
        return [("cli", cmd) for cmd in self.commands]

    def run(self, kind: str, cmd):
        """Run one command; returns the finished process and its wall time in ms."""
        start = perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-m", "klbp.cli", *cmd],
            capture_output=True,
            env=self.env,
            timeout=CALL_TIMEOUT_S,
            check=False,
        )
        return proc, (perf_counter_ns() - start) / 1e6

    def check(self, kind: str, cmd, out):
        """None when the call's report is right, else the reason it is not."""
        proc, wall_ms = out
        label = " ".join(cmd[:2])
        if proc.returncode != 0:
            return f"{label}: exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        try:
            report = json.loads(proc.stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            return f"{label}: stdout is not strict JSON ({exc})"
        if report.get("pass") is not True:
            return f"{label}: report does not pass"
        first = self.first_stdout.setdefault(cmd, proc.stdout)
        if proc.stdout != first:
            return f"{label}: stdout differs from an earlier run of the same command"
        command_ms = None
        for line in proc.stderr.decode(errors="replace").splitlines():
            if line.startswith("wall_time_s="):
                command_ms = 1000.0 * float(line.split("=", 1)[1])
        if command_ms is None:
            return f"{label}: no wall_time_s on stderr"
        self.counters["command_ms"].append(command_ms)
        self.counters["report_bytes"].append(len(proc.stdout))
        self.counters["startup_ms"].append(wall_ms - command_ms)
        return None

    def import_probe(self) -> None:
        """Time ``import numpy`` and then ``import klbp.cli`` in fresh interpreters."""
        self.counters["import_ms"] = []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE],
                capture_output=True, env=self.env, timeout=CALL_TIMEOUT_S, check=True,
            )
            self.counters["import_ms"].append(1000.0 * float(proc.stdout.split()[1]))
