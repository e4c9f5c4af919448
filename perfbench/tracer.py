"""Per-layer tracing for the benchmark's traced run, installed from outside ``src``.

Each chowlab module is a layer.  ``install`` wraps the functions listed in
``SPANS`` with a span that adds its self time (its duration minus the time of
the spans it encloses) to a named bucket, and the hot leaves listed in
``COUNTS`` with a bare call counter: they run hundreds of thousands of times
per workload, so their time is read at the enclosing span instead.

A wrapper replaces the original at every binding site where callers look it
up: module globals across the whole package (``suites.count_isotropic`` as
well as ``finitefields.count_isotropic``) and class dictionaries (so
``Element.__rmul__``, an alias of ``__mul__``, is wrapped too).  A listed
function that is found nowhere raises, so a rename in ``src`` cannot silently
drop a layer from the trace.

The bucket name before the first dot is the layer.  ``*.other`` buckets feed
the layer totals only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "chowlab"

LAYERS = (
    "algebra",
    "linalg",
    "finitefields",
    "invariants",
    "weil",
    "grassmann",
    "motives",
    "suites",
    "cli",
)

# (module, attribute, bucket)
SPANS = (
    ("algebra", "Element.__mul__", "algebra.mul"),
    ("algebra", "AlgebraPresentation.vectorize", "algebra.vectorize"),
    ("algebra", "AlgebraPresentation.degree_basis", "algebra.degree_basis"),
    ("algebra", "AlgebraPresentation.span_solver", "algebra.other"),
    ("algebra", "AlgebraPresentation.span_membership", "algebra.other"),
    ("algebra", "AlgebraPresentation.basis_elements", "algebra.other"),
    ("algebra", "AlgebraPresentation.poincare", "algebra.other"),
    ("algebra", "AlgebraPresentation.substitute", "algebra.other"),
    ("algebra", "free_polynomial_ring", "algebra.other"),
    # F2Span/ZSpan methods run at most a few ten thousand times per
    # workload, few enough for spans; without them the span work would be
    # charged to the invariants and weil checks that query the solvers.
    ("linalg", "F2Span.__init__", "linalg.f2"),
    ("linalg", "F2Span.add", "linalg.f2"),
    ("linalg", "F2Span.witness", "linalg.f2"),
    ("linalg", "F2Span.contains", "linalg.f2"),
    ("linalg", "f2_kernel", "linalg.f2"),
    ("linalg", "ZSpan.__init__", "linalg.z"),
    ("linalg", "ZSpan.add", "linalg.z"),
    ("linalg", "ZSpan.witness", "linalg.z"),
    ("linalg", "ZSpan.contains", "linalg.z"),
    ("linalg", "ZSpan.kernel_vectors", "linalg.z"),
    ("linalg", "z_kernel", "linalg.z"),
    ("linalg", "modp_kernel", "linalg.modp_kernel"),
    ("finitefields", "witt_index_hermitian", "finitefields.witt_hermitian"),
    ("finitefields", "witt_index_quadratic", "finitefields.witt_quadratic"),
    ("finitefields", "count_isotropic", "finitefields.count_isotropic"),
    ("finitefields", "count_singular", "finitefields.other"),
    ("finitefields", "hermitian_space", "finitefields.other"),
    ("finitefields", "trace_quadratic", "finitefields.other"),
    ("finitefields", "orth_count_polynomial", "finitefields.other"),
    ("finitefields", "jacobson_check", "finitefields.other"),
    ("invariants", "quotient_generation_check", "invariants.check"),
    ("invariants", "codim_le2_generation_check", "invariants.check"),
    ("invariants", "non_generation_witness", "invariants.check"),
    ("invariants", "generator_products", "invariants.products"),
    ("invariants", "invariant_basis", "invariants.basis"),
    ("invariants", "norm_image_basis", "invariants.basis"),
    ("invariants", "antisymmetric_rank", "invariants.basis"),
    ("invariants", "swap_polynomial_ring", "invariants.other"),
    ("weil", "build", "weil.build"),
    ("weil", "freeness_check", "weil.freeness"),
    ("weil", "base_generation_check", "weil.base_generation"),
    ("weil", "product_relation_check", "weil.other"),
    ("weil", "relation_element", "weil.other"),
    ("grassmann", "max_orth_ring", "grassmann"),
    ("grassmann", "prev_max_orth_ring", "grassmann"),
    ("grassmann", "odd_quotient_ring", "grassmann"),
    ("grassmann", "SubringClosure.basis", "grassmann"),
    ("grassmann", "subring_basis", "grassmann"),
    ("grassmann", "class_xr_even", "grassmann"),
    ("grassmann", "class_xr_odd", "grassmann"),
    ("grassmann", "uniqueness_in_codim", "grassmann"),
    ("grassmann", "annihilator", "grassmann"),
    ("grassmann", "isochow_quotient", "grassmann"),
    ("grassmann", "odd_squares_vanish", "grassmann"),
    ("grassmann", "odd_case_pipeline", "grassmann"),
    ("motives", "essential_poincare", "motives"),
    ("motives", "split_quadric_poincare", "motives"),
    ("motives", "kvadrika_check", "motives"),
    ("motives", "dvamr_check", "motives"),
    ("motives", "j_min", "motives"),
    ("motives", "cd2_identity_check", "motives"),
    ("motives", "decompose_step", "motives"),
    ("motives", "witt_decompose_whole", "motives"),
    ("suites", "run_suite", "suites.self"),
    ("cli", "main", "cli.self"),
)

COUNTS = (
    ("finitefields", "QuadExtField.add", "finitefields.ext_add"),
    ("finitefields", "QuadExtField.mul", "finitefields.ext_mul"),
    ("finitefields", "QuadExtField.conj", "finitefields.ext_conj"),
    ("finitefields", "HermitianSpace.value", "finitefields.herm"),
    ("finitefields", "QuadraticSpace.value", "finitefields.quad"),
    ("finitefields", "QuadraticSpace.polar", "finitefields.quad"),
)

# (name, unit) of every per-layer metric, in report order, grouped by the
# end-to-end metric each group should move.
METRICS = (
    # verify_s on rings-deg8 most, on verify-default less, not on witt-n5;
    # vectorize_calls against degree_basis_calls shows the basis index rebuilds.
    ("algebra.mul_calls", "count"),
    ("algebra.mul_s", "s"),
    ("algebra.vectorize_calls", "count"),
    ("algebra.vectorize_rows", "count"),
    ("algebra.vectorize_s", "s"),
    ("algebra.degree_basis_calls", "count"),
    ("algebra.degree_basis_s", "s"),
    ("algebra.basis_width_max", "count"),
    # verify_s on rings-deg8, Z rows dominating.  The ratios are useful rows
    # over rows inserted and witnesses found over queries.
    ("linalg.f2_rows", "count"),
    ("linalg.f2_rank_ratio", "ratio"),
    ("linalg.f2_s", "s"),
    ("linalg.z_rows", "count"),
    ("linalg.z_rank_ratio", "ratio"),
    ("linalg.z_queries", "count"),
    ("linalg.z_hit_ratio", "ratio"),
    ("linalg.z_s", "s"),
    ("linalg.modp_kernel_calls", "count"),
    # ext_* and herm_* move verify_s on verify-default; quad_* and
    # witt_quadratic_s move it on witt-n5.  count_yield is subspaces counted
    # per hermitian evaluation inside count_isotropic.
    ("finitefields.ext_mul_calls", "count"),
    ("finitefields.ext_ops", "count"),
    ("finitefields.herm_evals", "count"),
    ("finitefields.quad_evals", "count"),
    ("finitefields.witt_hermitian_s", "s"),
    ("finitefields.witt_quadratic_s", "s"),
    ("finitefields.count_isotropic_s", "s"),
    ("finitefields.subspaces_counted", "count"),
    ("finitefields.count_yield", "ratio"),
    # verify_s on rings-deg8 and verify-default.
    ("invariants.check_s", "s"),
    ("invariants.products_s", "s"),
    ("invariants.basis_s", "s"),
    ("invariants.degrees_checked", "count"),
    ("weil.build_s", "s"),
    ("weil.freeness_s", "s"),
    ("weil.base_generation_s", "s"),
    ("grassmann.s", "s"),
    ("motives.s", "s"),
    # orchestration overhead: verify_s on every workload a little.
    # trace.overhead_ratio is traced over untraced verify_s of the same run.
    ("suites.cases", "count"),
    ("suites.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span self times, call counts and event counters of one traced process."""

    def __init__(self):
        self.buckets: dict[str, list] = {}  # bucket -> [calls, self seconds]
        self.counters: dict[str, list] = {}  # counter -> [value]
        self._stack = [0.0]  # child time accumulated by each open span

    def _bucket(self, name: str) -> list:
        return self.buckets.setdefault(name, [0, 0.0])

    def _counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0])

    def span(self, fn, bucket: str, pre=None, post=None):
        cell = self._bucket(bucket)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - child
            if post is not None:
                post(args, out, before)
            return out

        return wrapper

    def count(self, fn, counter: str):
        cell = self._counter(counter)

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _hooks(self):
        """Pre/post hooks that turn return values into per-layer counters."""
        c = self._counter

        def adder(prefix):
            rows, pivots = c(f"{prefix}_rows"), c(f"{prefix}_pivots")

            def pre(args):
                return args[0].rank

            def post(args, out, rank_before):
                rows[0] += 1
                pivots[0] += args[0].rank - rank_before

            return pre, post

        def z_witness_post(args, out, _):
            c("linalg.z_queries")[0] += 1
            c("linalg.z_hits")[0] += out is not None

        def vectorize_post(args, out, _):
            c("algebra.vectorize_rows")[0] += len(out)

        def basis_post(args, out, _):
            width = c("algebra.basis_width_max")
            width[0] = max(width[0], len(out))

        herm = c("finitefields.herm")

        def count_pre(args):
            return herm[0]

        def count_post(args, out, evals_before):
            c("finitefields.subspaces_counted")[0] += out
            c("finitefields.count_herm_evals")[0] += herm[0] - evals_before

        def degrees_post(args, out, _):
            c("invariants.degrees_checked")[0] += len(out.degrees)

        def cases_post(args, out, _):
            c("suites.cases")[0] += len(out.cases)

        return {
            "F2Span.add": adder("linalg.f2"),
            "ZSpan.add": adder("linalg.z"),
            "ZSpan.witness": (None, z_witness_post),
            "AlgebraPresentation.vectorize": (None, vectorize_post),
            "AlgebraPresentation.degree_basis": (None, basis_post),
            "count_isotropic": (count_pre, count_post),
            "quotient_generation_check": (None, degrees_post),
            "run_suite": (None, cases_post),
        }

    def snapshot(self) -> dict:
        return {
            "buckets": {k: list(v) for k, v in self.buckets.items()},
            "counters": {k: v[0] for k, v in self.counters.items()},
        }


def _lookup(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)


def _rebind(original, wrapper, namespaces) -> int:
    """Replace ``original`` by ``wrapper`` wherever a namespace binds it."""
    found = 0
    for owner in namespaces:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, wrapper)
                found += 1
    return found


def install() -> Tracer:
    """Wrap every site of SPANS and COUNTS in the loaded chowlab package."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    classes = [
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith(PACKAGE + ".")
    ]
    namespaces = modules + list(dict.fromkeys(classes))
    tracer = Tracer()
    hooks = tracer._hooks()
    sites = [(m, a, b, True) for m, a, b in SPANS] + [(m, a, b, False) for m, a, b in COUNTS]
    for module_name, attr, bucket, timed in sites:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        original = _lookup(module, attr)
        if timed:
            pre, post = hooks.get(attr, (None, None))
            wrapper = tracer.span(original, bucket, pre, post)
        else:
            wrapper = tracer.count(original, bucket)
        if not _rebind(original, wrapper, namespaces):
            raise RuntimeError(f"trace site {module_name}.{attr} is bound nowhere")
    return tracer


def layer_self_seconds(snapshot: dict) -> dict:
    """Self seconds per layer, summed over the layer's buckets."""
    out = dict.fromkeys(LAYERS, 0.0)
    for bucket, (_, seconds) in snapshot["buckets"].items():
        out[bucket.split(".")[0]] += seconds
    return out


def layers_reached(snapshot: dict) -> set:
    """Layers with at least one span call or counted event."""
    reached = {b.split(".")[0] for b, (calls, _) in snapshot["buckets"].items() if calls}
    reached |= {c.split(".")[0] for c, value in snapshot["counters"].items() if value}
    return reached


def metrics(snapshot: dict) -> dict:
    """The per-layer metrics (all but trace.overhead_ratio) of one traced process."""
    b, c = snapshot["buckets"], snapshot["counters"]

    def calls(name):
        return b.get(name, (0, 0.0))[0]

    def seconds(name):
        return b.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    ext_ops = sum(c.get(f"finitefields.ext_{op}", 0) for op in ("add", "mul", "conj"))
    return {
        "algebra.mul_calls": calls("algebra.mul"),
        "algebra.mul_s": seconds("algebra.mul"),
        "algebra.vectorize_calls": calls("algebra.vectorize"),
        "algebra.vectorize_rows": c.get("algebra.vectorize_rows", 0),
        "algebra.vectorize_s": seconds("algebra.vectorize"),
        "algebra.degree_basis_calls": calls("algebra.degree_basis"),
        "algebra.degree_basis_s": seconds("algebra.degree_basis"),
        "algebra.basis_width_max": c.get("algebra.basis_width_max", 0),
        "linalg.f2_rows": c.get("linalg.f2_rows", 0),
        "linalg.f2_rank_ratio": ratio(c.get("linalg.f2_pivots", 0), c.get("linalg.f2_rows", 0)),
        "linalg.f2_s": seconds("linalg.f2"),
        "linalg.z_rows": c.get("linalg.z_rows", 0),
        "linalg.z_rank_ratio": ratio(c.get("linalg.z_pivots", 0), c.get("linalg.z_rows", 0)),
        "linalg.z_queries": c.get("linalg.z_queries", 0),
        "linalg.z_hit_ratio": ratio(c.get("linalg.z_hits", 0), c.get("linalg.z_queries", 0)),
        "linalg.z_s": seconds("linalg.z"),
        "linalg.modp_kernel_calls": calls("linalg.modp_kernel"),
        "finitefields.ext_mul_calls": c.get("finitefields.ext_mul", 0),
        "finitefields.ext_ops": ext_ops,
        "finitefields.herm_evals": c.get("finitefields.herm", 0),
        "finitefields.quad_evals": c.get("finitefields.quad", 0),
        "finitefields.witt_hermitian_s": seconds("finitefields.witt_hermitian"),
        "finitefields.witt_quadratic_s": seconds("finitefields.witt_quadratic"),
        "finitefields.count_isotropic_s": seconds("finitefields.count_isotropic"),
        "finitefields.subspaces_counted": c.get("finitefields.subspaces_counted", 0),
        "finitefields.count_yield": ratio(
            c.get("finitefields.subspaces_counted", 0), c.get("finitefields.count_herm_evals", 0)
        ),
        "invariants.check_s": seconds("invariants.check"),
        "invariants.products_s": seconds("invariants.products"),
        "invariants.basis_s": seconds("invariants.basis"),
        "invariants.degrees_checked": c.get("invariants.degrees_checked", 0),
        "weil.build_s": seconds("weil.build"),
        "weil.freeness_s": seconds("weil.freeness"),
        "weil.base_generation_s": seconds("weil.base_generation"),
        "grassmann.s": seconds("grassmann"),
        "motives.s": seconds("motives"),
        "suites.cases": c.get("suites.cases", 0),
        "suites.self_s": seconds("suites.self"),
        "cli.self_s": seconds("cli.self"),
    }
