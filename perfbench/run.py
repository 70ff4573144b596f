"""Run one pddiag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train32 --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports pddiag from ``src/``
there and exits non-zero without a result when that is missing. It sets
up the workload several times (``setup_s`` is the median), then runs
iterations in a closed loop for ``--seconds`` and checks every output. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it records the environment, the seed and the sample counts.

End-to-end metrics, the same four on every workload (an iteration is one
train32 pipeline, one screen64 pass or one preprocess cold+warm pass):

- setup_s: median of the set-up repeats (synth cohort, NIfTI files, model).
- wall_s: median iteration wall time.
- subjects_per_s: median per iteration of training subject-steps per second
  of train_stage time (train32), subjects screened per second (screen64),
  or subjects per second of the cold pass (preprocess).
- peak_rss_mb: peak resident memory of the benchmark process.

A traced run alternates untraced and traced iterations. Times of single
layers come from the traced ones; workload timings such as stage epochs
come from the untraced ones, and the tracing overhead is the difference of
the two medians of iteration wall time.
"""

import os

# One BLAS thread: the numeric workloads run in one Python thread, and
# OpenBLAS with one thread runs in the calling thread without a pool, so the
# busy threads stay at or below nproc in every workload (see check_threads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

# (cin, cout, input edge) of every conv3d_down: encoder conv1, conv2 and the
# branch conv at 32³ (train32) and at 64³ (screen64)
CONV_SHAPES = [(1, 4, 32), (4, 8, 16), (8, 8, 8), (1, 4, 64), (4, 8, 32), (8, 8, 16)]


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pddiag
    except ImportError as exc:
        sys.exit(f"cannot import pddiag from {src}: {exc}")
    if Path(pddiag.__file__).resolve().parent != src / "pddiag":
        sys.exit(f"imported pddiag from {pddiag.__file__}, not from {src}")


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    if threads is None:  # no OpenBLAS to ask; report what the environment requested
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": threads}


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "cpu": cpu,
    }


def check_threads(env: dict, workload: str) -> None:
    """Busy threads may not exceed nproc: preprocess jobs there, BLAS threads elsewhere.

    The preprocess workload makes no BLAS call, and one BLAS thread is the
    calling thread itself, so its jobs are the only busy threads.
    """
    from workloads import preprocess_jobs

    busy = preprocess_jobs() if workload == "preprocess" else env["blas_threads"]
    env["busy_threads"] = busy
    if busy > env["nproc"]:
        sys.exit(f"{busy} busy threads exceed nproc={env['nproc']}")


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(setup_stats, loop_stats, outcomes) -> dict:
    from tracer import AGGREGATOR_FNS, DIAGNOSER_FNS, Stat, conv_name

    plain = [o for traced, o in outcomes if not traced]
    traced = [o for is_traced, o in outcomes if is_traced]
    stats = {k: setup_stats.get(k, Stat()).merged(loop_stats.get(k, Stat())) for k in setup_stats.keys() | loop_stats.keys()}

    def get(name):
        return stats.get(name, Stat())

    def self_ms(name):
        s = get(name)
        return 1e3 * s.self_s / s.calls if s.calls else 0.0

    def calls(name):  # per traced iteration; setup is not counted
        return loop_stats.get(name, Stat()).calls / len(traced)

    def mb_per_s(name):
        s = get(name)
        return s.amount / s.total_s / 1e6 if s.total_s else 0.0

    def pooled(key):
        return _median(v for o in plain for v in o.details.get(key, []))

    def summed(key):
        return sum(v for o in traced for v in o.details.get(key, []))

    m = {}
    for cin, cout, edge in CONV_SHAPES:
        name = conv_name(cin, cout, edge)
        fwd, bwd = get(name + ".fwd"), get(name + ".bwd")
        busy = fwd.self_s + bwd.self_s
        m[name + ".fwd_ms"] = self_ms(name + ".fwd")
        m[name + ".bwd_ms"] = self_ms(name + ".bwd")
        m[name + ".calls"] = calls(name + ".fwd")
        m[name + ".gflops"] = (fwd.amount + bwd.amount) / busy / 1e9 if busy else 0.0
    back = get("autodiff.backward")
    m["autodiff.backward.ms_per_sample"] = self_ms("autodiff.backward")
    m["autodiff.graph_nodes_per_sample"] = back.amount / back.calls if back.calls else 0.0
    for fn in AGGREGATOR_FNS:
        m[f"aggregator.{fn}.ms"] = self_ms(f"aggregator.{fn}")
    for fn in DIAGNOSER_FNS:
        m[f"diagnoser.{fn}.ms"] = self_ms(f"diagnoser.{fn}")
    m["training.adamw_step.ms"] = self_ms("training.adamw_step")
    m["training.adamw_step.calls"] = calls("training.adamw_step")
    m["training.save_checkpoint.ms"] = self_ms("training.save_checkpoint")
    m["training.load_checkpoint.ms"] = self_ms("training.load_checkpoint")
    for k in (1, 2, 3):
        m[f"training.stage{k}_epoch_s"] = pooled(f"stage{k}_epoch_s")
    m["volume_io.read_volume.mb_per_s"] = mb_per_s("volume_io.read_volume")
    m["volume_io.write_volume.mb_per_s"] = mb_per_s("volume_io.write_volume")
    m["cohort.read_manifest.ms"] = self_ms("cohort.read_manifest")
    tool = get("preprocess.tool")
    m["preprocess.tool.ms_per_call"] = 1e3 * tool.total_s / tool.calls if tool.calls else 0.0
    m["preprocess.tool.calls"] = calls("preprocess.tool")
    # tools run only in cold passes, so the tool time of the traced iterations
    # is the tool time inside their cold records
    records = summed("cold_records")
    cold_overhead_s = summed("cold_record_s") - loop_stats.get("preprocess.tool", Stat()).total_s
    m["preprocess.overhead_ms_per_subject"] = 1e3 * cold_overhead_s / records if records else 0.0
    lookups = summed("cache_lookups")
    m["preprocess.cache_hit_ratio"] = summed("cache_hits") / lookups if lookups else 0.0
    m["preprocess.cache_lookups"] = lookups / len(traced)
    m["preprocess.cold_subjects_per_s"] = pooled("cold_subjects_per_s")
    m["preprocess.warm_subjects_per_s"] = pooled("warm_subjects_per_s")
    untraced_wall = _median(o.wall_s for o in plain)
    overhead = _median(o.wall_s for o in traced) - untraced_wall
    m["tracing.overhead_s"] = overhead
    m["tracing.overhead_pct"] = 100.0 * overhead / untraced_wall
    return m


def load_reference(size: str, workload: str, seed: int):
    from workloads import REFERENCE_SEEDS

    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(size, {}).get(workload, {}).get(str(seed % REFERENCE_SEEDS))


def measure(wl, seed: int, seconds: float, trace: bool, size: str, work_root: Path):
    from tracer import Tracer

    tracer = Tracer() if trace else None

    def maybe_traced(on: bool):
        return tracer.installed() if on else contextlib.nullcontext()

    setup_s = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(work_root / f"setup{i - 1}")
        with maybe_traced(trace):
            t0 = time.perf_counter()
            state = wl.setup(work_root / f"setup{i}", seed, size)
            setup_s.append(time.perf_counter() - t0)
    setup_stats = tracer.take() if trace else {}

    reference = load_reference(size, wl.name, seed)
    outcomes, problems = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    # a traced run needs one untraced and one traced iteration at least
    while not outcomes or time.perf_counter() < deadline or (trace and len(outcomes) < 2):
        traced = trace and len(outcomes) % 2 == 1
        with maybe_traced(traced):
            out = wl.run(state)
        found = out.problems + wl.check(out.outputs, reference)
        attempted += out.attempted
        failed += min(out.attempted, len(found))
        problems += found
        outcomes.append((traced, out))
    checked, found, _ = wl.final_check(state, reference)
    attempted += checked
    failed += min(checked, len(found))
    problems += found

    if trace:
        metrics = layer_metrics(setup_stats, tracer.take(), outcomes)
    else:
        metrics = {
            "setup_s": _median(setup_s),
            "wall_s": _median(o.wall_s for _, o in outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "subjects_per_s": _median(o.rate for _, o in outcomes),
        }
    samples = {"setups": len(setup_s), "iterations": len(outcomes), "traced_iterations": sum(t for t, _ in outcomes)}
    return metrics, attempted, failed, problems, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(args.workload, args.seed)
    check_threads(env, args.workload)

    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, attempted, failed, problems, samples = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.size, work_root
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()

    specs = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {s["name"] for s in specs}:
        sys.exit(f"metrics {sorted(set(metrics) ^ {s['name'] for s in specs})} do not match BENCHMARK.json")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    info = {"environment": env, "size": args.size, "samples": samples, "failed_ratio": failed / attempted}
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
