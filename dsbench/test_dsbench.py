#!/usr/bin/env python3
"""The benchmark's own tests: short runs of every workload.

    python3 dsbench/test_dsbench.py

Run from the repository root (or anywhere: paths are resolved from this
file). Builds through run.py first, so the first run takes about a minute.
Checks that every end-to-end and per-layer metric in BENCHMARK.json is
printed with its unit, that each workload's traced run emits its own layer
names, that a seed fixes inputs and outputs while another seed changes the
inputs, and that the benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
WORKLOADS = ("fleet", "replay", "serve")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The per-layer names each workload's split must produce itself (the rest
# read 0 there).
OWN_LAYERS = {
    "fleet": [
        "sim.events", "sim.step_s", "sim.flow_complete_events", "sim.flow_complete_s",
        "sim.flow_start_events", "sim.flow_start_s", "sim.active_flows_mean",
        "sim.flows_started", "sim.flows_completed", "sim.exec_grants",
        "sim.exec_wait_mean_s", "service.admit_events", "service.admit_s",
        "service.wait_mean_s", "service.peak_slot_occupancy", "service.tail_slowdown",
        "engine.task_events", "engine.task_s", "engine.task_aborts", "core.evaluations",
        "core.memo_hit_rate", "store.cache_hit_rate", "store.cold_plans",
        "store.invalidations", "store.observations", "other_s", "obs.traced_wall_s",
        "obs.trace_overhead_pct",
    ],
    "replay": [
        "trace.synth_s", "core.plan_s", "engine.validate_s", "core.evaluations",
        "core.memo_hit_rate", "other_s", "obs.traced_wall_s", "obs.trace_overhead_pct",
    ],
    "serve": [
        "store.requests", "store.hits", "store.misses", "store.errors", "store.hit_s",
        "store.miss_s", "store.self_s", "dag.parse_s", "core.compute_s",
        "core.evaluations", "core.memo_hit_rate", "store.cache_hit_rate",
        "store.cold_plans", "other_s", "obs.traced_wall_s", "obs.trace_overhead_pct",
    ],
}


BINARY = None


def setUpModule():
    # Build (or incrementally rebuild) once, exactly as run.py does.
    global BINARY
    sys.path.insert(0, HERE)
    import run
    BINARY = run.build()


def run_py(workload, seed, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "dsbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def run_binary(workload, seed, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    notes = {}
    for line in lines[:-1]:
        for key in ("inputs", "digest"):
            if line.startswith(f"# {key} "):
                notes[key] = line.split()[2].rstrip(",")
    return json.loads(lines[-1]), notes


class EndToEnd(unittest.TestCase):
    def test_every_metric_with_unit(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run_py(w, 3, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), list(units))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name], name)
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_emits_its_layers(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run_py(w, 3, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), list(units))
                own, _ = run_binary(w, 3, 1)
                self.assertEqual(sorted(own["metrics"]), sorted(OWN_LAYERS[w]))
                for name, m in own["metrics"].items():
                    self.assertEqual(m["unit"], units[name], name)


class Seeds(unittest.TestCase):
    def test_seed_fixes_inputs_and_outputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, notes_a = run_binary(w, 7, 0)
                b, notes_b = run_binary(w, 7, 0)
                c, notes_c = run_binary(w, 8, 0)
                self.assertEqual(notes_a, notes_b)
                for name in ("sim_mean_jct_s", "sim_tail_jct_s"):
                    self.assertEqual(a["metrics"][name], b["metrics"][name])
                self.assertNotEqual(notes_a["inputs"], notes_c["inputs"])
                self.assertNotEqual(notes_a["digest"], notes_c["digest"])


class Contract(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        # Only BENCHMARK.json and dsbench/: the build must fail, with no
        # result line.
        scratch = os.path.join(os.path.dirname(os.path.dirname(BINARY)), "no-src-test")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "dsbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, ".bench_build"))
            proc = run_py("fleet", 1, 0, cwd=scratch, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith("{") for l in proc.stdout.splitlines()))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "fleet", "--trace", "2"],
                     ["--workload", "nope"],
                     ["--workload", "serve", "--seconds", "0"]):
            with self.subTest(args=args):
                proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True, timeout=60)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
