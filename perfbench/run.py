"""affquant benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else.  With ``--trace 0`` the last
line of standard output is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics
of a traced run, preceded by an untraced phase that gives the overhead.
Details, provenance and the span file go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import affquant, affquant.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few requests, reduced verify run")
    return parser.parse_args(argv)


def import_program():
    """Import affquant from this checkout's src/ only; return the import time."""
    if not (SRC / "affquant" / "__init__.py").is_file():
        raise SystemExit(f"error: no affquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import affquant
    import affquant.cli  # noqa: F401  (the verify-all entry point)
    elapsed = time.perf_counter() - start
    if Path(affquant.__file__).resolve().parent != (SRC / "affquant").resolve():
        raise SystemExit(f"error: affquant imported from {affquant.__file__}, not {SRC}")
    return elapsed


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- timed phases ------------------------------------------------------------------

def run_phase(wl, pool, *, seconds=None, blocks=None, tracer=None) -> dict:
    """Serve whole blocks of requests until ``seconds`` of service time or ``blocks``.

    With ``wl.ref_every`` set, the workload's reference kernels are timed
    outside the requests at the start, after every ``wl.ref_every`` requests
    and at the end of each block.  The latencies of the requests between two
    samples are divided by the host speed factor of those two samples
    (``reference.speed_factor``); the raw times are kept beside them.
    """
    latencies, block_ns, raw_latencies, raw_block_ns, factors = [], [], [], [], []
    attempted = failed = warned = 0
    errors: dict[str, str] = {}
    index = 0
    service_ns = 0
    last_sample = reference.sample(wl.kernels) if wl.ref_every else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while True:
            block_lat, block_raw, segment = [], [], []
            for j in range(wl.block):
                req = pool[index % len(pool)]
                before = len(caught)
                if tracer is not None:
                    tracer.request_id = index
                    tracer.enabled = True
                start = time.perf_counter_ns()
                try:
                    out = wl.run(req)
                    exc = None
                except Exception as err:  # a failed request is counted, not fatal
                    exc = err
                elapsed = time.perf_counter_ns() - start
                if tracer is not None:
                    tracer.enabled = False
                warned += sum(issubclass(w.category, RuntimeWarning) for w in caught[before:])
                segment.append(elapsed)
                index += 1
                if exc is not None:
                    errors.setdefault(type(exc).__name__, traceback.format_exc())
                    attempted += 1
                    failed += 1
                else:
                    a, f = wl.check(req, out)
                    attempted += a
                    failed += f
                if wl.ref_every and ((j + 1) % wl.ref_every == 0 or j + 1 == wl.block):
                    sample = reference.sample(wl.kernels)
                    factor = reference.speed_factor(wl.kernels, [last_sample, sample])
                    last_sample = sample
                    factors.append(factor)
                    block_lat.extend(ns / factor for ns in segment)
                    block_raw.extend(segment)
                    segment = []
            block_lat.extend(segment)
            block_raw.extend(segment)
            latencies.extend(block_lat)
            block_ns.append(sum(block_lat))
            raw_latencies.extend(block_raw)
            raw_block_ns.append(sum(block_raw))
            service_ns += sum(block_raw)
            if blocks is not None and len(block_ns) >= blocks:
                break
            if seconds is not None and service_ns >= seconds * 1e9:
                break
    for text in errors.values():
        print(text, file=sys.stderr)
    return {"latencies_ns": latencies, "block_ns": block_ns,
            "raw_latencies_ns": raw_latencies, "raw_block_ns": raw_block_ns,
            "speed_factors": factors, "attempted": attempted,
            "failed": failed, "runtime_warnings": warned}


def tail(latencies_ns: list[int]) -> tuple[float, float, int]:
    """Tail latency: (ms, percentile, n).

    The highest percentile with at least ten samples beyond it, capped at p90:
    above p90 the shared host's stalls, which hit a few percent of requests in
    its busy spells and last too briefly for the reference kernels to see,
    set the value rather than the program.  p90 still lies in the deep class
    of exact-algebra (a fifth of its requests).  Below 21 samples no
    percentile above the median qualifies and the maximum is reported.
    """
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n < 21:
        return ordered[-1] / 1e6, 100.0, n
    beyond = max(10, n // 10)
    return ordered[n - beyond - 1] / 1e6, 100.0 * (n - beyond) / n, n


def end_to_end(phase: dict, block: int, setup_s: float, peak_rss_mb: float,
               raw: bool = False) -> dict:
    """The end-to-end metrics; block times enter through their median.

    Times are at nominal host speed unless ``raw``.  A median block keeps
    the host's slow spells, which can cover part of a run, from moving
    wall_s and ops_per_s the way a mean over the run would.
    """
    prefix = "raw_" if raw else ""
    lat = phase[prefix + "latencies_ns"]
    wall_s = statistics.median(phase[prefix + "block_ns"]) / 1e9
    tail_ms, _, _ = tail(lat)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (block / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# -- provenance ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "affquant").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    revision = {"src_sha256": digest.hexdigest()}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        revision["git_commit"] = ref
    else:
        revision["git_commit"] = "unknown (not a git checkout)"
    return revision


def provenance(seed: int) -> dict:
    import numpy
    import affquant
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "affquant": affquant.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
        "seed": seed,
        **_source_revision(),
    }


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    import_inprocess_s = import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        return _run(args, WORKLOADS[args.workload], workdir, import_inprocess_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload_cls, workdir: Path, import_inprocess_s: float) -> int:
    wl = workload_cls(workdir, tiny=args.tiny)
    imports, prepare = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        start = time.perf_counter()
        pool = wl.setup(args.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for req in pool[:wl.warm_requests]:
                wl.run(req)
        prepare.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(prepare)

    seconds = min(args.seconds, 0.5) if args.tiny else args.seconds
    phase = run_phase(wl, pool, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deferred = wl.finish()
    attempted = phase["attempted"] + deferred[0]
    failed = phase["failed"] + deferred[1]
    e2e = end_to_end(phase, wl.block, setup_s, peak_rss_mb)
    e2e_json = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    raw = end_to_end(phase, wl.block, setup_s, peak_rss_mb, raw=True)
    factors = phase["speed_factors"]
    _, tail_pct, n = tail(phase["latencies_ns"])

    report = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": seconds,
        "provenance": provenance(args.seed),
        "setup": {"import_s": imports, "import_inprocess_s": import_inprocess_s,
                  "prepare_s": prepare},
        "requests": n, "blocks": len(phase["block_ns"]), "block_requests": wl.block,
        "tail_percentile": tail_pct,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "runtime_warnings": phase["runtime_warnings"],
        "end_to_end": e2e_json,
        "end_to_end_raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "speed_factors": factors,
        "diagnostics": dict(wl.diagnostics),
    }

    lines = [f"workload {wl.name} seed {args.seed}: {wl.why}"]
    for name, (value, unit) in e2e.items():
        extra = f"  (p{tail_pct:.2f} of n={n})" if name == "op_tail_ms" else ""
        if wl.ref_every and name not in ("setup_s", "peak_rss_mb"):
            extra += f"  raw {raw[name][0]:.6g}"
        lines.append(f"  {name:<12} {value:.6g} {unit}{extra}")
    if wl.ref_every:
        quart = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
        lines.append(f"  host speed factor median {statistics.median(factors):.3f} "
                     f"(quartiles {quart[0]:.3f}-{quart[2]:.3f} over {len(factors)} samples)")
    lines.append(f"  {'failed_frac':<12} {report['failed_frac']:.6g}  "
                 f"({failed} of {attempted} checks)")
    for key, value in wl.diagnostics.items():
        lines.append(f"  diagnostic {key} = {value:.3g}")

    if args.trace:
        metrics, trace_info = traced(args, wl, pool, e2e["wall_s"][0])
        report["per_layer"] = metrics
        report["trace"] = trace_info
        attempted += trace_info["attempted"]
        failed += trace_info["failed"]
        report["attempted"], report["failed"] = attempted, failed
        report["failed_frac"] = failed / max(attempted, 1)
        lines.append(f"  traced {trace_info['blocks']} blocks: wall_s "
                     f"{metrics['trace.wall_s']:.6g} s, overhead "
                     f"{metrics['trace.overhead_s']:.3g} s; spans in {trace_info['spans_file']}")
        if wl.name == "verify-all":
            suites = sum(v for k, v in metrics.items()
                         if k.startswith("verify.suite_") and k.endswith(".busy_s"))
            lines.append(f"  suites busy_s sum {suites:.6g} s + cli.main self_s "
                         f"{metrics['cli.main.self_s']:.3g} s")
        out_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        out_metrics = e2e_json

    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    lines.append(f"  report: {RESULTS / name}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


def traced(args, wl, pool, untraced_wall_s: float):
    from tracing import Tracer
    tracer = Tracer()
    blocks = 1 if args.tiny else wl.trace_blocks
    with tracer.installed():
        phase = run_phase(wl, pool, blocks=blocks, tracer=tracer)
    deferred = wl.finish()
    metrics = tracer.summary()
    traced_wall_s = statistics.median(phase["block_ns"]) / 1e9
    metrics["warnings.RuntimeWarning"] = phase["runtime_warnings"]
    metrics["quantize.s_route_mismatch.max"] = wl.diagnostics.get(
        "quantize.s_route_mismatch.max", 0.0)
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    spans_file = RESULTS / f"spans-{wl.name}-seed{args.seed}.csv"
    tracer.write_spans(spans_file)
    return metrics, {"blocks": blocks, "requests": len(phase["latencies_ns"]),
                     "spans": len(tracer.spans), "spans_file": str(spans_file),
                     "attempted": phase["attempted"] + deferred[0],
                     "failed": phase["failed"] + deferred[1]}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_point"):
        return "ns"
    if metric.endswith(".max"):
        return "rel_l2"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
