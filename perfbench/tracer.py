"""Per-layer tracing of d4census, installed from outside the package.

`install` wraps every public function of the six modules (and the twist
counter `SieveTables.count_odd_squarefree_coprime`) and rebinds each wrapper
under every name that any d4census module bound the original to, because
modules bind the names they import (`from .arith import kronecker`).

Each wrapper opens a span on a shared stack.  A span's duration is charged
to its layer's self time minus the time its child spans cover, so self times
of nested layers never double count.  A few named functions also report
their inclusive time (outermost call only, so recursion and nesting inside
the same metric do not double count) and their call counts.  Spans are
aggregated as they close instead of being stored: the hottest functions are
called millions of times per op.

Some functions are called millions of times per op and do under a
microsecond of work per call, so a timed span would cost more than their
body.  `kronecker` (COUNT_ONLY) is counted but opens no span; `factor_small`
and `u_weight` (UNWRAPPED) are left alone.  Their time is charged to the
layer of the span that called them.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("arith", "localsolve", "census", "asymptotic", "charsum", "cli")

# function (layer, qualified name) -> metric holding its inclusive seconds
TIMED = {
    ("arith", "build_sieve"): "arith.build_sieve_s",
    ("arith", "load_sieve_cache"): "arith.load_cache_s",
    ("arith", "save_sieve_cache"): "arith.save_cache_s",
    ("arith", "SieveTables.count_odd_squarefree_coprime"): "arith.twist_count_s",
    ("localsolve", "padic_oracle"): "localsolve.padic_oracle_s",
    ("census", "exact_census"): "census.exact_census_s",
    ("census", "enumerate_admissible_triples"): "census.enumerate_s",
    ("asymptotic", "c_base"): "asymptotic.euler_s",
    ("asymptotic", "c_tilde"): "asymptotic.euler_s",
    ("asymptotic", "leading_constant"): "asymptotic.euler_s",
    ("asymptotic", "constant_identity"): "asymptotic.euler_s",
    ("asymptotic", "tamagawa_constant"): "asymptotic.euler_s",
    ("charsum", "T_direct"): "charsum.T_direct_s",
    ("charsum", "L_divisor_sum"): "charsum.L_divisor_sum_s",
    ("charsum", "character_sum_f"): "charsum.character_sum_s",
    ("cli", "main"): "cli.main_s",
}

# function (layer, qualified name) -> metric counting its calls
COUNTED = {
    ("arith", "kronecker"): "arith.kronecker_calls",
    ("arith", "decompose_triple"): "arith.decompose_triple_calls",
    ("arith", "SieveTables.count_odd_squarefree_coprime"): "arith.twist_count_calls",
    ("localsolve", "hilbert_symbol"): "localsolve.hilbert_symbol_calls",
    ("localsolve", "padic_oracle"): "localsolve.padic_oracle_calls",
    ("localsolve", "in_E_set"): "localsolve.in_E_set_calls",
    ("charsum", "T_direct"): "charsum.T_direct_calls",
    ("charsum", "L_product"): "charsum.L_product_calls",
}

COUNT_ONLY = {("arith", "kronecker")}
UNWRAPPED = {("arith", "factor_small"), ("localsolve", "u_weight")}

# lru-cached functions whose cache misses make up asymptotic.lru_misses
LRU_CACHED = ("c_base", "c_tilde", "leading_constant")

# the exact counts the traced run reports; they must repeat exactly
COUNT_METRICS = (
    "arith.sieve_entries",
    "arith.table_bytes",
    "arith.twist_count_calls",
    "arith.coprime_memo_entries",
    "arith.kronecker_calls",
    "arith.decompose_triple_calls",
    "localsolve.hilbert_symbol_calls",
    "localsolve.padic_oracle_calls",
    "localsolve.in_E_set_calls",
    "census.triples_yielded",
    "asymptotic.lru_misses",
    "charsum.T_direct_calls",
    "charsum.L_product_calls",
    "charsum.character_sum_terms",
    "cli.output_bytes",
)

TIME_METRICS = tuple(sorted(set(TIMED.values()))) + tuple(f"{layer}.self_s" for layer in LAYERS)


class Tracer:
    """Span stack and aggregates for one child process."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list = []
        self._depth: Counter = Counter()
        self._tables: list = []
        self._lru: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, layer, time_key, count_key, on_return=None):
        stack, depth, counts = self._stack, self._depth, self.counts
        self_s, times = self.self_s, self.times

        def wrapper(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            frame = [0.0]
            stack.append(frame)
            if time_key:
                depth[time_key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if time_key:
                    depth[time_key] -= 1
                    if not depth[time_key]:
                        times[time_key] += dt
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _generator_wrapper(self, fn, layer, time_key, yield_key):
        """Spans cover the time spent inside the generator's next()."""
        stack, counts, self_s, times = self._stack, self.counts, self.self_s, self.times

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                    if time_key:
                        times[time_key] += dt
                if yield_key:
                    counts[yield_key] += 1
                yield item

        return wrapper

    def _count_wrapper(self, fn, count_key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _keep_tables(self, tables):
        self._tables.append(tables)

    def _add_terms(self, report):
        self.counts["charsum.character_sum_terms"] += report.terms

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import d4census.cli  # noqa: F401  (imports all six modules)

        modules = {name: sys.modules[f"d4census.{name}"] for name in LAYERS}
        hooks = {
            ("arith", "build_sieve"): self._keep_tables,
            ("arith", "load_sieve_cache"): self._keep_tables,
            ("charsum", "character_sum_f"): self._add_terms,
        }
        replace = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = (layer, name)
                if key in UNWRAPPED:
                    continue
                if name in LRU_CACHED and layer == "asymptotic":
                    self._lru.append(obj)
                replace[id(obj)] = self._wrap(obj, key, hooks.get(key))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "d4census":
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        tables_cls = modules["arith"].SieveTables
        key = ("arith", "SieveTables.count_odd_squarefree_coprime")
        tables_cls.count_odd_squarefree_coprime = self._wrap(
            tables_cls.count_odd_squarefree_coprime, key, None)

    def _wrap(self, fn, key, on_return):
        layer = key[0]
        if key in COUNT_ONLY:
            return self._count_wrapper(fn, COUNTED[key])
        if inspect.isgeneratorfunction(fn):
            yield_key = "census.triples_yielded" if key == ("census", "enumerate_admissible_triples") else None
            return self._generator_wrapper(fn, layer, TIMED.get(key), yield_key)
        return self._span_wrapper(fn, layer, TIMED.get(key), COUNTED.get(key), on_return)

    # -- results ----------------------------------------------------------

    def close_op(self) -> None:
        """Fold the sieve tables an op created into the counts, then drop them."""
        for tables in self._tables:
            self.counts["arith.sieve_entries"] += tables.limit + 1
            nbytes = sum(getattr(tables, f).nbytes for f in
                         ("spf", "mu", "tau", "f_num", "f_den", "odd_sf_count"))
            self.counts["arith.table_bytes"] = max(self.counts["arith.table_bytes"], nbytes)
            self.counts["arith.coprime_memo_entries"] += len(tables._coprime_cache)
        self._tables.clear()

    def snapshot(self, output_bytes: int) -> dict:
        """Counts and times so far; call once, after the last op."""
        counts = Counter({k: 0 for k in COUNT_METRICS})
        counts.update(self.counts)
        counts["asymptotic.lru_misses"] = sum(f.cache_info().misses for f in self._lru)
        counts["cli.output_bytes"] = output_bytes
        times = {k: self.times.get(k, 0.0) for k in TIME_METRICS if not k.endswith(".self_s")}
        for layer in LAYERS:
            times[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        return {"counts": {k: counts[k] for k in COUNT_METRICS}, "times": times}
