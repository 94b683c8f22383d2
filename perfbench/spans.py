"""In-memory spans around the public functions of each package module.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span (or -1) and ``count`` carries a size where one exists
(RK4 steps of a kernel call, integrand evaluations of a quadrature).  The
wrappers replace a function in every ``diraconf`` module namespace that
binds it, because the modules import each other's functions by name.
"""
import statistics
import sys
import time

# (module, function, span name); the span name's prefix is the layer
LAYER_TARGETS = (
    ("diraconf._kernels", "rk4_linear2x2", "kernels.rk4_linear2x2"),
    ("diraconf.radial_solver", "find_bound_state", "radial_solver.find_bound_state"),
    ("diraconf.radial_solver", "solve_schrodinger_radial",
     "radial_solver.solve_schrodinger_radial"),
    ("diraconf.radial_solver", "suggest_rmax", "radial_solver.suggest_rmax"),
    ("diraconf.radial_solver", "suggest_rmax_schrodinger",
     "radial_solver.suggest_rmax_schrodinger"),
    ("diraconf.radial_solver", "shift_convergence_study",
     "radial_solver.shift_convergence_study"),
    ("diraconf.special_functions", "integrate_adaptive",
     "special_functions.integrate_adaptive"),
    ("diraconf.special_functions", "kummer_U", "special_functions.kummer_U"),
    ("diraconf.special_functions", "airy_negative_zeros",
     "special_functions.airy_negative_zeros"),
    ("diraconf.ansatz", "build_ansatz", "ansatz.build_ansatz"),
    ("diraconf.ansatz", "radial_residual", "ansatz.radial_residual"),
    ("diraconf.fw_effective", "first_order_shift", "fw_effective.first_order_shift"),
    ("diraconf.fw_effective", "preservation_scan", "fw_effective.preservation_scan"),
    ("diraconf.rescale", "bag_model_case", "rescale.bag_model_case"),
    ("diraconf.rescale", "h_profile", "rescale.h_profile"),
    ("diraconf.cli", "main", "cli.main"),
)

# a bound-state solve: one shooting solve, or one rescaled bag-wall state
SOLVE_SPANS = ("radial_solver.find_bound_state",
               "radial_solver.solve_schrodinger_radial",
               "rescale.bag_model_case")
SHOOTING_SPANS = SOLVE_SPANS[:2]
KERNEL_SPAN = "kernels.rk4_linear2x2"


def _kernel_size(args):
    """RK4 steps of one call and the bytes of its array arguments."""
    arrays = args[:5] + args[8:11]
    return len(args[0]), sum(a.nbytes for a in arrays)


class Tracer:
    """Records spans; ``install`` wraps the named targets, ``remove`` undoes it."""

    def __init__(self):
        self.spans = []
        self.kernel_bytes = 0
        self._stack = []

    def begin(self, name, count=0):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, count])

    def end(self, count=None):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        if count is not None:
            span[4] = count

    def reset(self):
        """Hand over the spans and kernel bytes recorded so far; start afresh."""
        out = self.spans, self.kernel_bytes
        self.spans, self.kernel_bytes = [], 0
        return out

    def _wrap(self, fn, name):
        if name == KERNEL_SPAN:
            def wrapper(*args):
                steps, nbytes = _kernel_size(args)
                self.kernel_bytes += nbytes
                self.begin(name, steps)
                try:
                    return fn(*args)
                finally:
                    self.end()
        elif name == "special_functions.integrate_adaptive":
            def wrapper(*args, **kwargs):
                self.begin(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.end(result.evaluations if result is not None else 0)
        else:
            def wrapper(*args, **kwargs):
                self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, span_names):
        """Wrap every target whose span name is listed, in all namespaces.

        Returns the patches, for ``remove``.
        """
        patches = []  # (module, attribute, original)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "diraconf"
                                         or key.startswith("diraconf."))]
        for module_name, attr, name in LAYER_TARGETS:
            if name not in span_names:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patches.append((module, key, original))
        return patches

    @staticmethod
    def remove(patches):
        for module, key, original in reversed(patches):
            setattr(module, key, original)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def solve_times(spans):
    return [s[2] - s[1] for s in spans if s[0] in SOLVE_SPANS]


def layer_metrics(spans, kernel_bytes, stdout_bytes):
    """Per-layer counts and self times of one traced pass."""
    own = self_times(spans)
    count, total, size = {}, {}, {}
    for s, t in zip(spans, own):
        count[s[0]] = count.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0.0) + t
        size[s[0]] = size.get(s[0], 0) + s[4]

    def n(*names):
        return sum(count.get(x, 0) for x in names)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    calls, steps, busy = n(KERNEL_SPAN), size.get(KERNEL_SPAN, 0), t(KERNEL_SPAN)
    solves = n(*SHOOTING_SPANS)
    per_solve = 1.0 / solves if solves else 0.0
    rmax = ("radial_solver.suggest_rmax", "radial_solver.suggest_rmax_schrodinger")
    quad = "special_functions.integrate_adaptive"
    return {
        "kernels.calls": calls,
        "kernels.steps": steps,
        "kernels.busy_s": busy,
        "kernels.us_per_step": busy / steps * 1e6 if steps else 0.0,
        "kernels.calls_per_solve": calls * per_solve,
        "kernels.steps_per_solve": steps * per_solve,
        "kernels.bytes_per_step": kernel_bytes / steps if steps else 0.0,
        "radial_solver.solves": solves,
        "radial_solver.self_s": t(*SHOOTING_SPANS),
        "radial_solver.self_s_per_solve": t(*SHOOTING_SPANS) * per_solve,
        "radial_solver.rmax_calls": n(*rmax),
        "radial_solver.rmax_s": t(*rmax),
        "special_functions.quad_calls": n(quad),
        "special_functions.quad_evals": size.get(quad, 0),
        "special_functions.quad_s": t(quad, "special_functions.kummer_U"),
        "special_functions.airy_s": t("special_functions.airy_negative_zeros"),
        "ansatz.build_s": t("ansatz.build_ansatz"),
        "ansatz.residual_s": t("ansatz.radial_residual"),
        "fw_effective.scan_s": t("fw_effective.preservation_scan"),
        "fw_effective.shift_s": t("fw_effective.first_order_shift"),
        "rescale.bag_s": t("rescale.bag_model_case"),
        "rescale.h_profile_s": t("rescale.h_profile"),
        "cli.calls": n("cli.main"),
        "cli.self_s": t("cli.main"),
        "cli.bytes_out": stdout_bytes,
    }


def median_metrics(per_pass):
    """Counts must repeat from pass to pass; times are reported as medians."""
    keys = per_pass[0]
    out = {}
    for key in keys:
        values = [p[key] for p in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
