"""Statistics, output checks and metric assembly for perfbench.

The C++ program (perfbench) writes raw samples and counts; everything
here is pure so test_benchlib.py can check it without running anything.
"""

import math
import statistics

WORKLOADS = ("fig8_grid", "launch_chain", "serve_mix")

# The highest percentile with at least ten samples beyond it, fixed per
# workload from the fewest operations a run makes: launch_chain and
# serve_mix make thousands (p99). A run makes two or three Fig. 8 grids,
# too few for any percentile to have ten beyond it; its tail is the
# slowest grid.
TAIL_PERCENTILE = {"fig8_grid": 100.0, "launch_chain": 99.0, "serve_mix": 99.0}

# End-to-end metrics: (name, unit). Every workload reports all of them.
# "op" is a grid (fig8_grid), a timestep (launch_chain) or a request
# (serve_mix; latency is the interactive tenants'). The tail and the
# throughput are per-layer metrics: on a shared host they follow
# hypervisor CPU steal too closely to carry a bound (METRICS.md).
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("cpu_ns_per_thread", "ns"),
    ("heap_mb", "MB"),
)

# Per-layer metrics of a traced run: (name, unit). A workload that does
# not exercise a layer reports 0 for it (see METRICS.md for which
# workload feeds which metric).
APPS = ("xsbench", "rsbench", "su3", "aidw", "adam", "stencil1d")
VERSIONS = ("ompx", "omp", "native", "vendor")
ENGINE_COUNTERS = ("launches", "threads", "fibers_created", "fiber_reuses",
                   "lane_loops", "deflations", "steals", "block_barriers",
                   "atomics")
LAYER_PATHS = ("engine", "blocks", "stream", "ompx", "kl", "serve")
# Which path each layer's cost is measured above.
LAYER_BASE = {"engine": None, "blocks": "engine", "stream": "engine",
              "ompx": "stream", "kl": "stream", "serve": "engine"}
SPAN_LAYERS = ("bench", "apps", "ompx", "serve")

PER_LAYER = (
    (("op_ms_tail", "ms"), ("ops_per_s", "1/s"), ("warmup_cpu_s", "s"))
    + tuple((f"apps.wall_ms.{a}", "ms") for a in APPS)
    + tuple((f"apps.wall_ms.{v}", "ms") for v in VERSIONS)
    + (("apps.outside_engine_ms", "ms"),)
    + tuple((f"engine.{c}", "count") for c in ENGINE_COUNTERS)
    + (("engine.ns_per_thread", "ns"), ("engine.launch_log_records", "count"))
    + tuple((f"layer.{p}_us{q}", "us") for p in LAYER_PATHS
            for q in ("", "_q1", "_q3"))
    + (("process.rss_peak_mb", "MB"), ("layer.model_ns", "ns"),
       ("ompx.enqueue_us", "us"), ("ompx.wait_us", "us"),
       ("omp.handshakes", "count"), ("omp.globalized_bytes", "B"),
       ("omp.transfer_ms_modeled", "ms"),
       ("serve.malloc_us", "us"), ("serve.launch_ms", "ms"),
       ("serve.free_us", "us"), ("serve.quanta_per_req", "count"),
       ("serve.admission_rejections", "count"),
       ("serve.quota_rejections", "count"),
       ("serve.batch_req_ms_p50", "ms"), ("serve.min_share", "ratio"),
       ("model.kernel_ms.a100", "ms"), ("model.kernel_ms.mi250", "ms"),
       ("model.cells_unstable", "count"))
    + tuple((f"self_ms.{layer}", "ms") for layer in SPAN_LAYERS)
    + (("trace.overhead_pct", "%"), ("trace.spans", "count"))
)


def percentile(values, q):
    """The q-th percentile (0..100), interpolated linearly between the
    closest ranks. An inf entry is a failed operation: it sorts last and
    a percentile that reaches it is inf."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi or math.isinf(xs[hi]):
        return xs[hi]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread the bounds in BENCHMARK.json cap."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def cell_key(cell):
    return f"{cell['app']}/{cell['version']}/{cell['device']}"


def cell_failures(cell, reference):
    """Why a Fig. 8 cell disagrees with the reference table, if it does:
    checksum validity (the XSBench omp cells are expected INVALID, by
    design) and modeled ms within the table's tolerance, which covers
    the XSBench/RSBench atomic-retry jitter and nothing else."""
    key = cell_key(cell)
    ref = reference["cells"].get(key)
    if ref is None:
        return [f"{key}: not in the reference table"]
    out = []
    if cell["valid"] != ref["valid"]:
        out.append(f"{key} grid {cell['grid']}: valid={cell['valid']}, "
                   f"expected {ref['valid']}")
    tolerance = reference["tolerance_rel"]
    rel = tolerance.get(cell["app"], tolerance["default"])
    if abs(cell["kernel_ms"] - ref["kernel_ms"]) > rel * ref["kernel_ms"]:
        out.append(f"{key} grid {cell['grid']}: modeled "
                   f"{cell['kernel_ms']!r} ms, expected "
                   f"{ref['kernel_ms']!r} within {rel:g}")
    return out


def _median(samples):
    return statistics.median(samples) if samples else 0.0


def _grids(raw):
    """The grid numbers whose cells are the measured operations (grid 0
    is the warm-up)."""
    return sorted({c["grid"] for c in raw["cells"] if c["grid"] >= 1})


def evaluate(workload, raw, reference):
    """Turns one perfbench result into the result object run.py prints,
    {"correct", "attempted", "failed", "metrics"}, plus the failed
    checks' messages and the run's latency figures (for aliases())."""
    notes = []
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    # A failed operation is written as null and counts as missing every
    # latency percentile.
    op_ms = [math.inf if x is None else x for x in raw["op_ms"]]
    ops = int(raw["ops"])
    if workload == "fig8_grid":
        # A cell is the checked operation; a grid with a failed cell
        # counts as a failed (timed) operation.
        bad_grids = set()
        for c in raw["cells"]:
            why = cell_failures(c, reference)
            notes += why
            attempted += 1
            failed += bool(why)
            if why:
                bad_grids.add(c["grid"])
        grids = _grids(raw)
        op_ms = [math.inf if g in bad_grids else ms
                 for g, ms in zip(grids, op_ms)]
        ops -= len(bad_grids & set(grids))
    if attempted < 1:
        attempted = 1
        failed = 1
        notes.append("no operation was attempted")

    latency = {
        "op_ms_p50": percentile(op_ms, 50.0) if op_ms else math.inf,
        "op_ms_tail": (percentile(op_ms, TAIL_PERCENTILE[workload])
                       if op_ms else math.inf),
        "ops_per_s": ops / raw["measure_s"] if raw["measure_s"] > 0 else 0.0,
    }
    if raw["trace"]:
        values = per_layer(workload, raw)
        values["op_ms_tail"] = latency["op_ms_tail"]
        values["ops_per_s"] = latency["ops_per_s"]
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": _median(raw["setup_s"]),
            "op_ms_p50": latency["op_ms_p50"],
            "cpu_ns_per_thread": (1e9 * raw["measure_cpu_s"] / raw["threads"]
                                  if raw["threads"] else math.inf),
            # Peak resident memory stands in where malloc statistics are
            # missing (a non-glibc build).
            "heap_mb": (_median(raw["heap_mb"]) if raw["heap_mb"]
                        else raw["rss_peak_mb"]),
        }
        units = dict(END_TO_END)
    correct = failed == 0 and all(math.isfinite(v) for v in values.values())
    metrics = {name: {"value": v if math.isfinite(v) else 1e300,
                      "unit": units[name]} for name, v in values.items()}
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, notes, latency)


def tracing_overhead_pct(workload, raw):
    """How much slower traced operations ran than the untraced ones
    interleaved with them in the same phase. On fig8_grid each cell is
    traced in one grid and untraced in the next; the overhead is the
    median over cells of their traced/untraced wall ratio."""
    def finite(xs):
        return [x for x in xs if x is not None and math.isfinite(x)]
    if workload == "fig8_grid":
        walls = {}
        for c in raw["cells"]:
            if c["grid"] >= 1:
                walls.setdefault(cell_key(c), ([], []))[
                    0 if c["traced"] else 1].append(c["wall_ms"])
        ratios = [statistics.median(t) / statistics.median(u)
                  for t, u in walls.values() if t and u]
        return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
    traced = finite(raw["traced_op_ms"])
    untraced = finite(raw["untraced_op_ms"])
    if not traced or not untraced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced)
                    - 1.0)


def per_layer(workload, raw):
    """Every per-layer metric; 0 for layers this workload does not run."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    v = raw["values"]
    samples = raw["samples"]
    for name in values:
        if name in v:  # null: a counter divided by zero correct operations
            values[name] = math.inf if v[name] is None else v[name]
    values["process.rss_peak_mb"] = raw["rss_peak_mb"]
    values["warmup_cpu_s"] = raw["warmup_s"]
    threads = v.get("engine.threads", 0.0)
    if threads and "engine.wall_ms" in v:
        values["engine.ns_per_thread"] = v["engine.wall_ms"] * 1e6 / threads

    paths = {p: samples.get(f"probe.{p}_us", []) for p in LAYER_PATHS}
    if all(paths.values()):
        for p in LAYER_PATHS:
            base = LAYER_BASE[p]
            offset = statistics.median(paths[base]) if base else 0.0
            q1, q2, q3 = quartiles(paths[p])
            values[f"layer.{p}_us"] = q2 - offset
            values[f"layer.{p}_us_q1"] = q1 - offset
            values[f"layer.{p}_us_q3"] = q3 - offset
    values["layer.model_ns"] = _median(samples.get("layer.model_ns", []))
    for name in ("ompx.enqueue_us", "ompx.wait_us", "serve.malloc_us",
                 "serve.free_us"):
        values[name] = _median(samples.get(name, []))
    values["serve.launch_ms"] = _median(samples.get("serve.launch_us", [])) / 1e3
    values["serve.batch_req_ms_p50"] = _median(
        samples.get("serve.batch_req_ms", []))

    if raw["cells"]:
        first = _grids(raw)[0]
        for dev, key in (("sim-a100", "a100"), ("sim-mi250", "mi250")):
            values[f"model.kernel_ms.{key}"] = sum(
                c["kernel_ms"] for c in raw["cells"]
                if c["grid"] == first and c["device"] == dev)
        seen = {}
        for c in raw["cells"]:
            seen.setdefault(cell_key(c), set()).add(c["kernel_ms"])
        values["model.cells_unstable"] = float(
            sum(len(s) > 1 for s in seen.values()))

    # Per traced cell, timestep or request (batch requests too).
    units = max(v.get("trace.units", 0.0), 1.0)
    for layer in SPAN_LAYERS:
        values[f"self_ms.{layer}"] = v.get(f"self_ms.{layer}", 0.0) / units
    values["trace.overhead_pct"] = tracing_overhead_pct(workload, raw)
    return values


def aliases(workload, result, latency):
    """The long names of this workload's wall-clock figures."""
    m = latency
    out = [("failed_ratio", result["failed"] / result["attempted"], "ratio")]
    if workload == "fig8_grid":
        out.append(("fig8.grid_s", m["op_ms_p50"] / 1e3, "s"))
    elif workload == "launch_chain":
        out += [("chain.iter_us_p50", m["op_ms_p50"] * 1e3, "us"),
                ("chain.iter_us_p99", m["op_ms_tail"] * 1e3, "us")]
    else:
        out += [("serve.req_ms_p50", m["op_ms_p50"], "ms"),
                ("serve.req_ms_p99", m["op_ms_tail"], "ms"),
                ("serve.req_per_s", m["ops_per_s"], "1/s")]
    return out
