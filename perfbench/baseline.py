"""Measure every workload on ten seeds and record medians and quartiles.

    python3 perfbench/baseline.py [--out perfbench/baseline.json] [--seeds 10]

Runs ``run.py`` once per seed and workload with ``--trace 0``, then once per
workload with ``--trace 1``, each for BENCHMARK.json's ``run_seconds``, and
writes the median, quartiles, spread ((q3 - q1) / median), sample count and
values by seed of every end-to-end metric. The spread of an end-to-end
metric is what its bound in BENCHMARK.json is compared with.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed)]
        + ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(med) if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "baseline.json"))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {}
        checks = []
        for seed in range(1, args.seeds + 1):
            info, result = run_once(spec, name, seed, 0)
            out["environment"] = {k: v for k, v in info["environment"].items() if k not in ("workload", "seed")}
            checks.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: correct={result['correct']}", file=sys.stderr, flush=True)
        info, traced = run_once(spec, name, 1, 1)
        checks.append({"seed": 1, "trace": 1, **{k: traced[k] for k in ("correct", "attempted", "failed")}})
        out["workloads"][name] = {
            "end_to_end": {metric: summary(v) for metric, v in values.items()},
            "per_layer_seed1": {metric: m["value"] for metric, m in traced["metrics"].items()},
            "checks": checks,
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
