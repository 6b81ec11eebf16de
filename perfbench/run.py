"""Benchmark of the klbp engine: four closed-loop workloads, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spn-stream --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

``--trace 0`` times operations with tracing off and prints the end-to-end
metrics.  ``--trace 1`` is the separate traced run: it runs each operation
of the named workload once traced and once untraced (the gap is
``bench.trace_overhead_pct``), traces the other workloads briefly so every
per-layer metric has a value, runs the size ladder, writes every span to
``.perfbench_out/``, and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

The engine is imported from ``src/`` of the checkout and nowhere else; the
benchmark refuses to run without it.  Operations run one at a time in this
process (``cli-desk``: one child process at a time), and the BLAS pool is
held to one thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # so that this directory imports as the package ``perfbench``

from perfbench import stats  # noqa: E402  (these modules do not import klbp)
from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import SETUP_OP, Recorder, aggregate  # noqa: E402
from perfbench.speed import REFERENCE_NS, SpeedGauge, at_reference  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("spn-stream", "fg-loopy", "desk-verify", "cli-desk")
SETUPS = 3  # set-ups per run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _load_engine() -> str | None:
    """Put the checkout's ``src`` first on the path; return an error or None."""
    if not (SRC / "klbp" / "__init__.py").is_file():
        return f"no klbp sources under {SRC}"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import klbp

    if Path(klbp.__file__).resolve().parent != (SRC / "klbp").resolve():
        return f"klbp was imported from {klbp.__file__}, not from {SRC}"
    return None


@dataclass
class Phase:
    latencies_ns: list
    failures: list
    rounds: int
    probes: list  # mean speed-gauge probe around each recorded operation
    untraced_ns: list  # paired untraced runs of the same operations, if asked for

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def _timed(wl, rec, kind, payload, op_id):
    """Run one operation; return (ns, output, error or None)."""
    start = perf_counter_ns()
    try:
        with rec.span("op." + kind, op_id=op_id):
            out = wl.run(kind, payload)
        error = None
    except Exception as exc:  # an operation that raises is a failed operation
        out, error = None, f"{kind}: raised {type(exc).__name__}: {exc}"
    return perf_counter_ns() - start, out, error


def measure(wl, rec, seconds: float, op_ids, gauge, paired: bool = False) -> Phase:
    """Closed loop over whole rounds of ``wl``.

    Rounds run until the operations have taken ``seconds`` in total at the
    reference host speed (so the number of operations does not follow the
    host's contention), the workload's minimum number of rounds has run,
    and the tail percentile has enough samples.  Each output is checked after its operation's clock
    stops.  ``gauge`` is read before each operation, and probed again when
    its last probe is stale; an operation's probe is the mean of the
    readings before and after it.  With ``paired`` every operation also
    runs once with the recorder off, before or after the recorded run in
    turn, so the tracing overhead is measured on the same operations at
    nearly the same time.
    """
    lat, probes, untraced, failures = [], [], [], []
    busy_ref = r = 0
    while r < wl.min_rounds or busy_ref < seconds * 1e9 or len(lat) <= 2 * stats.TAIL_BEYOND:
        for i, (kind, payload) in enumerate(wl.round(r)):
            for traced in (((False, True) if i % 2 == 0 else (True, False)) if paired else (True,)):
                if not traced:
                    rec.enabled = False
                    elapsed, _, error = _timed(wl, rec, kind, payload, None)
                    rec.enabled = True
                    untraced.append(elapsed)
                else:
                    probes.append(gauge.current())
                    elapsed, out, error = _timed(wl, rec, kind, payload, next(op_ids))
                    if error is None:
                        try:
                            error = wl.check(kind, payload, out)
                        except Exception as exc:  # so is one whose output cannot be checked
                            error = f"{kind}: check raised {type(exc).__name__}: {exc}"
                    lat.append(elapsed)
                    busy_ref += at_reference(elapsed, probes[-1])
                if error:
                    failures.append(error)
        r += 1
    after = probes[1:] + [gauge.current()]
    return Phase(lat, failures, r, [(a + b) / 2 for a, b in zip(probes, after)], untraced)


def set_up(cls, seed: int, rec, workdir: Path, gauge):
    """Build and warm up the workload SETUPS times; keep the last.

    Returns the workload, the set-up times in ns, and the mean gauge probe
    around each.
    """
    times, probes, wl = [], [], None
    for k in range(SETUPS):
        if wl is not None:
            wl.close()
            wl = None  # release the previous instances before building new ones
        before = gauge.current()
        start = perf_counter_ns()
        with rec.span("setup", op_id=SETUP_OP):
            wl = cls(seed, rec, workdir / f"{cls.name}-{k}")
            for kind, payload in wl.warm_up():
                try:
                    wl.run(kind, payload)
                except Exception:  # counted when the same operation runs in the measured loop
                    pass
        times.append(perf_counter_ns() - start)
        probes.append((before + gauge.current()) / 2)
    return wl, times, probes


def _classes() -> dict:
    from perfbench.cli_desk import CliDesk
    from perfbench.desk_verify import DeskVerify
    from perfbench.fg_loopy import FgLoopy
    from perfbench.spn_stream import SpnStream

    return {cls.name: cls for cls in (SpnStream, FgLoopy, DeskVerify, CliDesk)}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _report_failures(failures) -> None:
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=sys.stderr)


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> int:
    rec = Recorder(enabled=False)
    gauge = SpeedGauge()
    wl, setups, setup_probes = set_up(_classes()[name], seed, rec, workdir, gauge)
    try:
        phase = measure(wl, rec, seconds, itertools.count(), gauge)
    finally:
        wl.close()
    n, n_failed = len(phase.latencies_ns), len(phase.failures)

    def summary(lat_ns, setup_ns):
        lat_ms = [x / 1e6 for x in lat_ns]
        tail_ms, tail_pct, above = stats.tail(lat_ms)
        values = {
            "throughput_per_s": n / (sum(lat_ns) / 1e9),
            "latency_p50_ms": stats.median(lat_ms),
            "latency_tail_ms": tail_ms,
            "setup_s": stats.median(setup_ns) / 1e9,
            "peak_rss_mb": peak_rss_mb(children=name == "cli-desk"),
        }
        return values, f"p{tail_pct:.2f}, {above} samples above, {n} samples"

    values, tail_note = summary(
        list(map(at_reference, phase.latencies_ns, phase.probes)),
        list(map(at_reference, setups, setup_probes)),
    )
    raw, _ = summary(phase.latencies_ns, setups)
    print(
        f"{name} seed {seed}: {n} operations in {phase.rounds} rounds, {phase.busy_s:.3f} s measured; "
        f"times scaled to the reference host speed ({len(gauge.probes)} probes, "
        f"median {stats.median(gauge.probes) / 1e3:.0f} us, reference {REFERENCE_NS / 1e3:.0f} us)"
    )
    for key, unit in END_TO_END:
        extra = f"  (raw {raw[key]:.6g})" if key != "peak_rss_mb" else ""
        if key == "latency_tail_ms":
            extra += f"  ({tail_note})"
        elif key == "setup_s":
            extra += f"  (median of {len(setups)} set-ups)"
        print(f"  {key:18s} {values[key]:.6g} {unit}{extra}")
    print(f"  {'fail_ratio':18s} {n_failed / n:.6g} ratio  ({n_failed} of {n} failed)")
    _report_failures(phase.failures)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    print(json.dumps({"correct": not phase.failures, "attempted": n, "failed": n_failed, "metrics": metrics}))
    return 0 if not phase.failures else 1


def _layer_values(agg: dict, counters: dict) -> dict:
    """Per-layer metric name -> (value, share of its phase's time, phase)."""

    def spans_of(workload, names):
        for phase in ("op", "setup"):
            durs = [d for n in names for d in agg.get((workload, phase, n), {"dur": []})["dur"]]
            if durs:
                return phase, durs
        raise KeyError(f"no spans named {names} in {workload}")

    def phase_total(workload, phase):
        return sum(
            sum(v["dur"])
            for (w, p, n), v in agg.items()
            if w == workload and p == phase and (n.startswith("op.") or n == "setup")
        )

    _, up = spans_of("spn-stream", ["spn.upward_pass"])
    counters["spn-stream"]["edges_per_s"] = [counters["spn-stream"]["edges"] / (stats.median(up) / 1e9)]
    _, runs = spans_of("fg-loopy", ["factorgraph.bp_run"])
    counters["fg-loopy"]["messages_per_s"] = [sum(counters["fg-loopy"]["messages"]) / (sum(runs) / 1e9)]
    # The CLI prints wall_time_s to the millisecond, so the median of its
    # times repeats one integer on every run; their mean keeps the fraction.
    command_ms = counters["cli-desk"]["command_ms"]
    counters["cli-desk"]["command_ms"] = [sum(command_ms) / len(command_ms)]
    out = {}
    for m in PER_LAYER:
        if m.spans:
            phase, durs = spans_of(m.workload, m.spans)
            out[m.name] = (stats.median(durs) / 1e6, sum(durs) / phase_total(m.workload, phase), phase)
        else:
            value = counters[m.workload][m.counter]
            out[m.name] = (stats.median(value) if isinstance(value, list) else value, None, None)
    return out


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> int:
    from perfbench import ladder

    classes = _classes()
    rec = Recorder(enabled=True)
    gauge = SpeedGauge()  # probed as in the untraced run; traced times stay raw
    op_ids = itertools.count()
    counters: dict = {}
    attempted, failures = 0, []
    for wname in [name] + [w for w in WORKLOADS if w != name]:
        rec.workload = wname
        wl, _, _ = set_up(classes[wname], seed, rec, workdir, gauge)
        try:
            if wname == name:
                phase = measure(wl, rec, seconds / 2, op_ids, gauge, paired=True)
                overhead = 100.0 * (sum(phase.latencies_ns) / sum(phase.untraced_ns) - 1.0)
            else:
                phase = measure(wl, rec, seconds / 4, op_ids, gauge)
            if wname == "cli-desk":
                wl.import_probe()
        finally:
            wl.close()
        counters[wname] = {**wl.static, **wl.counters}
        attempted += len(phase.latencies_ns) + len(phase.untraced_ns)
        failures += [f"{wname}: {msg}" for msg in phase.failures]
    counters[""] = {"trace_overhead_pct": overhead}
    rec.workload = "ladder"
    points = ladder.run(seed, rec)

    agg = aggregate(rec.spans)
    values = _layer_values(agg, counters)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{name}-seed{seed}"
    rec.write(f"{stem}.spans.json")
    summary = {
        "workload": name,
        "seed": seed,
        "per_layer": {
            m.name: {"value": values[m.name][0], "unit": m.unit, "share": values[m.name][1],
                     "share_of": values[m.name][2], "workload": m.workload or name, "moves": list(m.moves)}
            for m in PER_LAYER
        },
        "self_time_ms": {
            f"{w}/{p}/{n}": {"calls": len(v["dur"]), "total": sum(v["dur"]) / 1e6, "self": sum(v["self"]) / 1e6}
            for (w, p, n), v in sorted(agg.items())
        },
        "ladder": points,
        "failures": failures,
    }
    with open(f"{stem}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"traced run of {name}, seed {seed}; spans in {stem}.spans.json")
    for m in PER_LAYER:
        value, share, phase = values[m.name]
        where = f"{m.workload} {'set-up' if phase == 'setup' else 'operation'}"
        share_text = f"  {100 * share:5.1f}% of {where} time" if share is not None else ""
        print(f"  {m.name:34s} {value:.6g} {m.unit}{share_text}")
    print("size ladder:")
    for p in points:
        result = p.get("error") or "ok"
        ms = f"{p['ms']:.3f} ms" if "ms" in p else "-"
        print(f"  {p['point']:26s} {ms:>14s}  {result}")
    _report_failures(failures)
    metrics = {m.name: {"value": values[m.name][0], "unit": m.unit} for m in PER_LAYER}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    error = _load_engine()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    workdir = WORK / str(os.getpid())
    try:
        run = run_traced if args.trace else run_untraced
        return run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
