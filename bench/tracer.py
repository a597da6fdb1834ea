"""Layer tracing from outside the package.

Tracer.install wraps the public functions of each layer module and rebinds
every name under which a glgcomp module refers to them, so calls between
modules, and calls a module makes to its own public functions, pass
through the wrapper.  Each call becomes an in-memory span (function, start,
end, parent span, outcome) tagged with the current op id.  Spans are folded
into per-function totals when their op ends; uninstall restores every name.
"""

import inspect
import sys
import time

PACKAGE = "glgcomp"
LAYERS = ("cli", "analysis", "oracle", "realization", "search",
          "glg_builder", "graph_core")

# normalize_edge runs once per edge inside Graph construction and
# Graph.has_edge; a span around it would cost more than the call itself
# and would swamp every other graph_core figure.
UNTRACED = frozenset({"graph_core.normalize_edge"})

RETURNED, RETURNED_NONE, BUDGET_EXCEEDED, RAISED = range(4)

# Every duration the benchmark measures is CPU time of its own process.  On
# a shared virtual machine the hypervisor takes the CPU away for a quarter
# to a third of the wall time, in bursts of seconds (steal time): 80 passes
# over the same 20 construct_blocks ops took 2.2-4.3 s of wall time and
# 2.1-2.6 s of CPU time.  The process runs one op at a time and waits on
# nothing but small local files, so its CPU time is the op's latency on an
# unshared core.  A call costs about 0.4 us, against 0.1 us for
# perf_counter.
CLOCK = time.process_time


class FunctionStats:
    __slots__ = ("calls", "inclusive_s", "self_s", "outcomes")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.outcomes = [0, 0, 0, 0]


class Tracer:
    """Span recorder; install() before an op loop, uninstall() after."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names = []           # function index -> "layer.function"
        self.stats = []           # function index -> FunctionStats
        self.spans = []           # [fid, start, end, parent, outcome, op]
        self.stack = []
        self.op = None
        self.ops_reaching = {}    # "layer.function" -> ops that called it
        self._rebound = []
        self._budget_exceeded = Exception

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        self._budget_exceeded = modules[PACKAGE + ".errors"].BudgetExceeded
        wrappers = {}
        for layer in self.layers:
            mod = modules[PACKAGE + "." + layer]
            for name, fn in sorted(vars(mod).items()):
                qual = "%s.%s" % (layer, name)
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in UNTRACED):
                    continue
                wrappers[id(fn)] = self._wrap(fn, qual)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._rebound.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound = []

    def _wrap(self, fn, qual):
        fid = len(self.names)
        self.names.append(qual)
        self.stats.append(FunctionStats())
        spans = self.spans
        stack = self.stack
        clock = CLOCK
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, RETURNED,
                    tracer.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._budget_exceeded:
                span[4] = BUDGET_EXCEEDED
                raise
            except BaseException:
                span[4] = RAISED
                raise
            else:
                if result is None:
                    span[4] = RETURNED_NONE
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def begin_op(self, op):
        self.op = op
        del self.spans[:]

    def end_op(self):
        """Fold the op's spans into the totals; returns their summed self
        time, which equals the summed duration of the op's root spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_total = 0.0
        reached = set()
        for i, (fid, start, end, _, outcome, _) in enumerate(spans):
            st = self.stats[fid]
            duration = end - start
            st.calls += 1
            st.inclusive_s += duration
            st.self_s += duration - child[i]
            st.outcomes[outcome] += 1
            self_total += duration - child[i]
            reached.add(fid)
        for fid in reached:
            name = self.names[fid]
            self.ops_reaching[name] = self.ops_reaching.get(name, 0) + 1
        self.op = None
        del spans[:]
        return self_total

    def function(self, qual):
        """FunctionStats for 'layer.function' (zeros if never wrapped)."""
        for fid, name in enumerate(self.names):
            if name == qual:
                return self.stats[fid]
        return FunctionStats()

    def layer_totals(self):
        """{layer: (calls, self seconds)} over every traced function."""
        out = {layer: [0, 0.0] for layer in self.layers}
        for name, st in zip(self.names, self.stats):
            tot = out[name.split(".", 1)[0]]
            tot[0] += st.calls
            tot[1] += st.self_s
        return out


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, by a calibration loop."""
    tracer = Tracer(layers=())

    def noop():
        return 1

    wrapped = tracer._wrap(noop, "calibration.noop")
    clock = CLOCK
    best_plain = best_traced = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        tracer.begin_op(0)
        for _ in range(calls):
            wrapped()
        tracer.end_op()
        t2 = clock()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / calls
