"""glgcomp benchmark: one closed-loop caller, no threads, standard library only.

    python3 bench/run.py --workload classify_mix --seed 1 --seconds 35 --trace 0

Run from a checkout: the package is imported from ../src relative to this
file.  Each run builds its corpus from --seed, then makes whole passes over
it, each op issued only after the previous one returned: at least two
passes, and more while another one fits in --seconds of wall time.  Every
op is timed in CPU time of this process (see tracer.CLOCK); ops_per_s and
the latency percentiles are taken over every op of every pass, and every
end-to-end time is scaled to a reference host speed (see REF_S).  Every
output of every pass is checked by the independent checker in checker.py;
a wrong witness aborts the run with exit code 1, and an answer that
changes between passes makes "correct" false.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run, per pass over the corpus.  `--workload
all` runs every workload both ways.  Before the last line come one line per
metric and a "report" line (answer digest, outcome tally, instance sizes);
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

import checker
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_CPU_S
# seconds have gone into it; one classify_mix set-up takes about 0.04 s, and
# the median of five of them moved by a quarter between runs.
SETUP_REPEATS = 5
SETUP_CPU_S = 1.0
# Every answer is computed at least twice, and the two must agree.
MIN_PASSES = 2
# The host's speed drifts by a fifth and more over minutes, in CPU time too:
# other guests share the core's caches and clock.  Each run therefore times
# a fixed pure-Python loop of REF_ITERATIONS steps after each set-up and
# after every REF_EVERY_S of op CPU time, and reports end-to-end times as
# they would read on a host where that loop takes REF_S.  Over 58
# three-second chunks of construct_sparse ops in one process, the CPU time
# of 30-second windows varied by 9% (coefficient of variation), the scaled
# time by 2%; over ten construct_sparse runs the quartile spread of
# latency_p50_ms was 15% of the median in CPU time and 4% scaled.
REF_ITERATIONS = 100_000
REF_S = 0.010
REF_EVERY_S = 0.5
UNDETERMINED = "at-most-two-undetermined"
VERDICT_K = {"exactly-zero": 0, "exactly-one": 1, "exactly-two": 2}


class SetupError(Exception):
    """The checkout does not hold the package under test."""


class Package:
    """The package's layer modules, looked up on every call so that the
    tracer's rebinding takes effect."""

    def __init__(self):
        for layer in tracer.LAYERS + ("errors",):
            setattr(self, layer, sys.modules["glgcomp." + layer])


def import_package():
    """Import glgcomp afresh from the checkout's src directory."""
    init = os.path.join(SRC, "glgcomp", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError("no package source at %s" % init)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "glgcomp" or n.startswith("glgcomp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("glgcomp")
    if os.path.abspath(pkg.__file__) != os.path.abspath(init):
        raise SetupError("glgcomp was imported from %s, not %s"
                         % (pkg.__file__, init))
    for layer in tracer.LAYERS:
        importlib.import_module("glgcomp." + layer)
    return Package()


# ---------------------------------------------------------------------------
# Workloads: how to prepare, call and judge one op
# ---------------------------------------------------------------------------

class ClassifyMix:
    name = "classify_mix"
    corpus = staticmethod(workloads.classify_mix)

    def prepare(self, pkg, corpus, workdir):
        return [(pkg.graph_core.Graph(i["vertices"], i["edges"]), i["weights"])
                for i in corpus]

    def call(self, pkg, item):
        try:
            return pkg.analysis.classify(*item)
        except (pkg.errors.BudgetExceeded, pkg.errors.ConstructionFailed) as exc:
            return exc

    def judge(self, target, item, result):
        """(outcome, failed, exact) of one op on the instance whose combined
        graph is target; raises WitnessError on a wrong answer."""
        if isinstance(result, Exception):
            return "raised:%s" % type(result).__name__, True, False
        rule = result.evidence[-1][1]
        certs = result.certificates
        for cert in certs.values():
            checker.check_witness(target, cert.digraph.vertices,
                                  cert.digraph.arcs, cert.k)
        if "two_extra" not in certs or certs["two_extra"].k != 2:
            raise checker.WitnessError("verdict lacks its two-extra witness")
        if result.k_value == UNDETERMINED:
            return "%s/%s" % (result.k_value, rule), False, False
        k = VERDICT_K.get(result.k_value)
        if k is None:
            raise checker.WitnessError("unknown verdict %r" % result.k_value)
        if k < 2 and not any(c.k == k for c in certs.values()):
            raise checker.WitnessError("verdict %s has no witness with %d "
                                       "extras" % (result.k_value, k))
        if k >= 1 and checker.has_isolated_vertex(target):
            raise checker.WitnessError("verdict %s on a graph with an "
                                       "isolated vertex" % result.k_value)
        if k == 2 and rule != "oracle" and not checker.needs_two_extras(target):
            raise checker.WitnessError("rule %s claims two extras but the "
                                       "reduced graph has a simplicial or "
                                       "isolated vertex" % rule)
        return "%s/%s" % (result.k_value, rule), False, True


class ConstructSparse:
    name = "construct_sparse"
    corpus = staticmethod(workloads.construct_sparse)

    prepare = ClassifyMix.prepare

    def call(self, pkg, item):
        try:
            return pkg.realization.glg_realization(*item)
        except (pkg.errors.BudgetExceeded, pkg.errors.ConstructionFailed) as exc:
            return exc

    def judge(self, target, item, result):
        if isinstance(result, Exception):
            return "raised:%s" % type(result).__name__, True, False
        d = result.digraph
        checker.check_witness(target, d.vertices, d.arcs, 2)
        return "ok", False, True


class ConstructBlocks:
    name = "construct_blocks"
    corpus = staticmethod(workloads.construct_blocks)

    def prepare(self, pkg, corpus, workdir):
        items = []
        for i, inst in enumerate(corpus):
            path = os.path.join(workdir, "instance-%04d.json" % i)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"kind": "vertex_weighted_graph",
                           "vertices": inst["vertices"],
                           "edges": [list(e) for e in inst["edges"]],
                           "weights": inst["weights"]}, handle)
            items.append((path, os.path.join(workdir, "cert-%04d.json" % i)))
        return items

    def call(self, pkg, item):
        path, cert = item
        return pkg.cli.main(["realize", "two", path, "-o", cert])

    def judge(self, target, item, result):
        if result != 0:
            return "exit:%d" % result, True, False
        with open(item[1], encoding="utf-8") as handle:
            cert = json.load(handle)
        os.remove(item[1])
        if cert.get("kind") != "realization_certificate" or cert.get("k") != 2:
            raise checker.WitnessError("certificate is not a two-extra "
                                       "realization certificate")
        d = cert["digraph"]
        checker.check_witness(target, d["vertices"], d["arcs"], 2)
        if sorted(cert["added"]) != sorted(set(d["vertices"]) - target[0]):
            raise checker.WitnessError("certificate names the wrong extras")
        return "ok", False, True


WORKLOADS = {w.name: w for w in (ClassifyMix(), ConstructSparse(),
                                 ConstructBlocks())}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def quantile(values, q):
    """Harrell-Davis estimate of the q-th percentile of the values.

    A weighted mean of all order statistics, weighted by the distribution
    of the q-th sample quantile (a beta distribution, approximated here by
    the normal with its mean and variance).  Near a gap in the data, as
    between the cheap and the searching instances of classify_mix, the
    plain sample percentile jumps from one side to the other when two
    instances swap rank; this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    p = q / 100.0
    dist = statistics.NormalDist(p, math.sqrt(p * (1 - p) / (n + 2)))
    cdf = [dist.cdf(i / n) for i in range(n + 1)]
    return (sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))
            / (cdf[n] - cdf[0]))


def answer_digest(outcomes):
    """sha256 over (instance index, outcome) for one pass of the corpus."""
    text = "".join("%d\t%s\n" % pair for pair in enumerate(outcomes))
    return hashlib.sha256(text.encode()).hexdigest()


def size_profile(corpus):
    """Distribution (min, quartiles, max) of base and combined sizes."""
    def five(values):
        values = sorted(values)
        q = statistics.quantiles(values, n=4, method="inclusive")
        return [values[0], q[0], q[1], q[2], values[-1]]
    return {
        "base_vertices": five([len(i["vertices"]) for i in corpus]),
        "base_edges": five([len(i["edges"]) for i in corpus]),
        "combined_vertices": five([workloads.combined_vertices(i)
                                   for i in corpus]),
    }


def reference():
    """CPU seconds of one run of the reference loop."""
    t0 = tracer.CLOCK()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return tracer.CLOCK() - t0


def setup(workload, seed, workdir):
    """Import, generate and prepare repeatedly; keep the last.

    Returns (package, corpus, items, median CPU seconds of one set-up,
    scaled by the reference loop timed after each)."""
    times = []
    ref_times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_CPU_S:
        # Start each set-up from a collected heap; otherwise full collections
        # of the previous set-ups' garbage fall into some repetitions and not
        # others (construct_sparse set-ups then took 0.26-0.52 s, and
        # 0.50-0.55 s after a collection).
        gc.collect()
        t0 = tracer.CLOCK()
        pkg = import_package()
        corpus = workload.corpus(seed)
        items = workload.prepare(pkg, corpus, workdir)
        times.append(tracer.CLOCK() - t0)
        ref_times.append(reference())
    scale = REF_S / statistics.mean(ref_times)
    return pkg, corpus, items, scale * statistics.median(times)


def run_workload(workload, seed, seconds, trace):
    workdir = os.path.join(WORK, "%s-%d" % (workload.name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _run(workload, seed, seconds, trace, workdir):
    pkg, corpus, items, setup_s = setup(workload, seed, workdir)
    # The corpus lives for the whole run; keep the collector from
    # re-walking it, which would bill the benchmark's memory to each op.
    gc.collect()
    gc.freeze()
    span_cost = tracer.span_cost() if trace else 0.0
    tr = tracer.Tracer().install() if trace else None
    clock = tracer.CLOCK
    wall = time.perf_counter
    samples = []
    ref_times = [reference()]
    since_ref = 0.0
    attempted = 0
    first = []
    consistent = True
    failed = exact = 0
    self_total = 0.0
    passes = 0
    start = wall()
    try:
        while True:
            pass_start = wall()
            for index, item in enumerate(items):
                if tr:
                    tr.begin_op(attempted)
                t0 = clock()
                result = workload.call(pkg, item)
                t1 = clock()
                if tr:
                    self_total += tr.end_op()
                attempted += 1
                samples.append(t1 - t0)
                since_ref += t1 - t0
                if since_ref >= REF_EVERY_S:
                    ref_times.append(reference())
                    since_ref = 0.0
                inst = corpus[index]
                target = checker.combined_graph(inst["vertices"], inst["edges"],
                                                inst["weights"])
                outcome, bad, settled = workload.judge(target, item, result)
                failed += bad
                exact += settled
                if passes == 0:
                    first.append(outcome)
                elif first[index] != outcome:
                    consistent = False
            passes += 1
            now = wall()
            if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
                break
    finally:
        if tr:
            tr.uninstall()
        gc.unfreeze()
    report = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "passes": passes, "ops": attempted, "latency_samples": len(samples),
        "wall_s": round(wall() - start, 3), "cpu_s": round(sum(samples), 3),
        "ref_ms": round(1000 * statistics.mean(ref_times), 4),
        "ref_samples": len(ref_times),
        "answer_digest": answer_digest(first),
        "outcomes": dict(sorted(Counter(first).items())),
        "sizes": size_profile(corpus),
    }
    if not trace:
        scale = REF_S / statistics.mean(ref_times)
        metrics = {
            "ops_per_s": (attempted / (scale * sum(samples)), "1/s"),
            "latency_p50_ms": (1000 * scale * quantile(samples, 50), "ms"),
            "latency_p90_ms": (1000 * scale * quantile(samples, 90), "ms"),
            "ok_share": (1 - failed / attempted, "share"),
            "exact_share": (exact / attempted, "share"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tr, passes, attempted, sum(samples),
                                self_total, span_cost)
    return consistent, attempted, failed, metrics, report


def layer_metrics(tr, passes, ops, traced_s, self_total, span_cost):
    """Per-layer metrics, per pass over the corpus."""
    metrics = {}
    spans = 0
    for layer, (calls, self_s) in tr.layer_totals().items():
        metrics[layer + ".self_s"] = (self_s / passes, "s")
        metrics[layer + ".calls"] = (calls / passes, "count")
        spans += calls
    fr = tr.function("search.find_realization")
    found, refuted, exhausted = (fr.outcomes[tracer.RETURNED],
                                 fr.outcomes[tracer.RETURNED_NONE],
                                 fr.outcomes[tracer.BUDGET_EXCEEDED])
    for key, value in (("calls", fr.calls), ("found", found),
                       ("refuted", refuted), ("budget_exceeded", exhausted)):
        metrics["search.find_realization." + key] = (value / passes, "count")
    metrics["search.find_realization.s"] = (fr.inclusive_s / passes, "s")
    metrics["search.useful_ratio"] = (
        (found + refuted) / fr.calls if fr.calls else 0.0, "ratio")
    metrics["search.reached_share"] = (
        tr.ops_reaching.get("search.find_realization", 0) / ops, "share")
    for qual, fields in (("realization.verify_realization", ("calls", "s")),
                         ("realization.compose_realization", ("calls",)),
                         ("graph_core.competition_graph", ("calls", "s")),
                         ("graph_core.opsut_lower_bound", ("s",)),
                         ("glg_builder.generalized_line_graph", ("calls",))):
        st = tr.function(qual)
        if "calls" in fields:
            metrics[qual + ".calls"] = (st.calls / passes, "count")
        if "s" in fields:
            metrics[qual + ".s"] = (st.inclusive_s / passes, "s")
    metrics["trace.op_s"] = (traced_s / passes, "s")
    metrics["trace.self_share"] = (self_total / traced_s, "share")
    metrics["trace.overhead_share"] = (spans * span_cost / traced_s, "share")
    return metrics


def print_report(report, metrics):
    print("== %s seed=%d trace=%d: %d ops in %d pass(es), %.1f s"
          % (report["workload"], report["seed"], report["trace"],
             report["ops"], report["passes"], report["wall_s"]))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print("report " + json.dumps(report, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with 'all', which runs both ways")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for name, trace in plan:
            ok, n, bad, metrics, report = run_workload(
                WORKLOADS[name], args.seed, args.seconds, trace)
            print_report(report, metrics)
            correct &= ok
            attempted += n
            failed += bad
            prefix = name + "." if args.workload == "all" else ""
            for key, (value, unit) in metrics.items():
                out[prefix + key] = {"value": value, "unit": unit}
    except SetupError as exc:
        print("setup failed: %s" % exc, file=sys.stderr)
        return 2
    except checker.WitnessError as exc:
        print("wrong answer: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
