"""Span tracer for the traced run: wraps public functions of each module.

A wrapper is installed wherever a name is looked up: module-level
functions in every ``hybridcert`` module that imported them by name,
methods on their class, and the closures that the expression compiler
returns.  Open spans live on a stack; each closing span adds its duration
to its parent's child time, so self time is duration minus child time.
Only per-name totals are kept, and ``restore()`` puts every original back.
"""

import sys
import time

# (module, function, span name); patched in every module that holds it
FUNCTIONS = (
    ("geometry", "contains", "geometry.contains"),
    ("geometry", "dist_to_set", "geometry.dist_to_set"),
    ("hybrid", "arc_to_csv", "hybrid.arc_to_csv"),
    ("simulate", "solve", "simulate.solve"),
    ("simulate", "closeness", "simulate.closeness"),
    ("simulate", "construct_perturbed", "simulate.construct_perturbed"),
    ("controller", "qp_policy", "controller.qp_policy"),
    ("controller", "solve_qp", "controller.solve_qp"),
    ("controller", "admissible_constraints",
     "controller.admissible_constraints"),
    ("certificates", "check_pair_VB", "certificates.check_pair_VB"),
    ("monitor", "check_ras", "monitor.check_ras"),
    ("monitor", "estimate_invariant_core", "monitor.estimate_invariant_core"),
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "write_csv_rows", "cli.write_csv_rows"),
    ("cli", "write_json", "cli.write_json"),
    ("examples", "mg_closed_loop", "examples.mg_closed_loop"),
)

# (module, class, method, span name); patched on the class
METHODS = (
    ("hybrid", "HybridSystem", "flow", "hybrid.flow"),
    ("hybrid", "HybridSystem", "jump_candidates", "hybrid.jump_candidates"),
    ("certificates", "ScalarField", "__call__", "certificates.field"),
    ("certificates", "ScalarField", "gradient", "certificates.gradient"),
)

# compilers whose returned closures are traced as expressions.eval
FACTORIES = ("vector_fn", "scalar_fn", "predicate_fn")

PACKAGE = "hybridcert"


class Tracer:
    """Per-name span totals: calls, total (outermost spans only) and self."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self._stack = []  # child time of each open span
        self._depth = {}  # name -> number of open spans of that name
        self._patches = []  # (owner, attribute, original)

    def active(self, name):
        return self._depth.get(name, 0) > 0

    def add(self, counter, n):
        self.counters[counter] = self.counters.get(counter, 0) + n

    def wrap(self, name, fn, on_result=None):
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[name] -= 1
                entry[0] += 1
                if not depth[name]:
                    entry[1] += dt
                entry[2] += dt - child
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _modules(self):
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        """Patch every traced name; call restore() to undo."""
        mods = sys.modules
        hooks = {
            "simulate.solve": self._count_arc,
            "hybrid.flow": self._count_flow,
        }
        for module, fn_name, span in FUNCTIONS:
            original = getattr(mods["%s.%s" % (PACKAGE, module)], fn_name)
            self._patch_everywhere(
                original, self.wrap(span, original, hooks.get(span))
            )
        for module, cls_name, method, span in METHODS:
            cls = getattr(mods["%s.%s" % (PACKAGE, module)], cls_name)
            self._set(
                cls, method, self.wrap(span, vars(cls)[method], hooks.get(span))
            )
        certificates = mods[PACKAGE + ".certificates"]
        points = certificates.GridSpec.points
        self._set(
            certificates.GridSpec, "points",
            lambda grid: self._count_points(points(grid)),
        )
        expressions = mods[PACKAGE + ".expressions"]
        for fn_name in FACTORIES:
            original = getattr(expressions, fn_name)
            self._patch_everywhere(original, self._factory(original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _factory(self, compile_fn):
        def traced_compile(*args, **kwargs):
            return self.wrap("expressions.eval", compile_fn(*args, **kwargs))

        return traced_compile

    def _count_arc(self, report):
        arc = report.arc
        self.add("simulate.samples", sum(t.size for t, _ in arc.phases))
        self.add("simulate.jumps", arc.num_phases - 1)

    def _count_flow(self, _):
        if self.active("simulate.solve"):
            self.add("simulate.flow_in_solve", 1)

    def _count_points(self, pts):
        self.add("certificates.grid_points", len(pts))
        return pts

    # ------------------------------------------------------------ results

    def snapshot(self):
        """Calls per span name and every counter, for per-op deltas."""
        out = {name: entry[0] for name, entry in self.spans.items()}
        out.update(self.counters)
        return out
