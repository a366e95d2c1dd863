"""Run one klmoments CLI invocation with every measured layer traced.

Usage: python3 perfbench/tracer.py SUMMARY_OUT -- CLI_ARGS...

The child imports ``klmoments`` from PYTHONPATH, times the import of
``klmoments.cli``, wraps the public function of each layer (rebinding it in
every klmoments module that bound it by from-import, or on the class for
methods), runs ``klmoments.cli.main(CLI_ARGS)`` with stdout untouched, and
exits with its status. Spans stay in memory until the call returns; then
the per-layer summary is written to SUMMARY_OUT and the raw spans to
SUMMARY_OUT with a ``.spans.json`` suffix.

A span is (op, start_ns, end_ns, parent, ok). A span's self time is its
duration minus that of its direct children.
"""

# Only modules a bare interpreter has already loaded are imported before the
# timed import of klmoments.cli; json is imported once the run is over.
import os
import sys
import time

_clock = time.perf_counter_ns

# (op, layer, module, attribute); "Class.method" attributes are patched on
# the class, plain functions in every klmoments module that holds them.
OPS = (
    ("evans.batch", "evans", "klmoments.evans", "batch_report"),
    ("evans.audit", "evans", "klmoments.evans", "MomentEngine.audit"),
    ("moments.exact", "moments", "klmoments.moments", "power_sums_exact"),
    ("moments.float_auto", "moments", "klmoments.moments", "power_sums_float_auto"),
    ("moments.float", "moments", "klmoments.moments", "power_sums_float"),
    ("moments.girard", "moments", "klmoments.moments", "sym_moment_girard"),
    ("kloosterman.kl2", "kloosterman", "klmoments.kloosterman", "kl2_counts"),
    ("cyclotomic.mul", "cyclotomic", "klmoments.cyclotomic", "CycInt.__mul__"),
    ("cyclotomic.add", "cyclotomic", "klmoments.cyclotomic", "CycInt.__add__"),
    ("cyclotomic.root", "cyclotomic", "klmoments.cyclotomic", "unit_root_intervals"),
    ("convolve.cyclic", "convolve", "klmoments.convolve", "cyclic_convolve"),
    ("convolve.ntt", "convolve", "klmoments.convolve", "cyclic_convolve_ntt"),
    ("modforms.eta", "modforms", "klmoments.modforms", "eta_quotient_series"),
    ("modforms.hecke", "modforms", "klmoments.modforms", "hecke_validate"),
    ("cache.get_or_compute", "cache", "klmoments.cache", "PowerSumStore.get_or_compute"),
    ("cache.load", "cache", "klmoments.cache", "PowerSumStore.load"),
    ("cache.store", "cache", "klmoments.cache", "PowerSumStore.store"),
)


class Tracer:
    def __init__(self):
        self.ops = [op for op, _, _, _ in OPS]
        self.spans = []
        self.stack = []
        self.facts = {
            "evans.rows": 0,
            "evans.audit_calls": 0,
            "moments.float_bits_max": 0,
            "modforms.eta_terms": 0,
            "convolve.coeff_bits_max": 0,
            "cache.bytes_written": 0,
        }

    def wrap(self, op_index, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, _clock

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[i] = (op_index, start, end, parent, ok)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks recording facts a span cannot carry --------------------------

    def _hooks(self, op):
        facts = self.facts

        def count_rows(args, result):
            facts["evans.rows"] += len(result[0])

        def audit_with_work(args, kwargs):
            if args[0].float_primes:
                facts["evans.audit_calls"] += 1

        def float_bits(args, result):
            facts["moments.float_bits_max"] = max(facts["moments.float_bits_max"], result[1])

        def eta_terms(args, kwargs):
            facts["modforms.eta_terms"] += kwargs["terms"] if "terms" in kwargs else args[1]

        def coeff_bits(args, result):
            top = max(max(result), -min(result))
            facts["convolve.coeff_bits_max"] = max(
                facts["convolve.coeff_bits_max"], top.bit_length()
            )

        def bytes_written(args, result):
            facts["cache.bytes_written"] += os.path.getsize(result)

        return {
            "evans.batch": (None, count_rows),
            "evans.audit": (audit_with_work, None),
            "moments.float_auto": (None, float_bits),
            "modforms.eta": (eta_terms, None),
            "convolve.cyclic": (None, coeff_bits),
            "convolve.ntt": (None, coeff_bits),
            "cache.store": (None, bytes_written),
        }.get(op, (None, None))

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "klmoments" or name.startswith("klmoments.")]
        for index, (op, _, module_name, attr) in enumerate(OPS):
            module = sys.modules[module_name]
            before, after = self._hooks(op)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(index, cls.__dict__[meth], before, after))
                continue
            original = getattr(module, attr)
            traced = self.wrap(index, original, before, after)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, traced)

    def summary(self) -> dict:
        """Per-op counts and inclusive/self times, per-layer self times, facts."""
        n_ops = len(self.ops)
        calls = [0] * n_ops
        ok = [0] * n_ops
        total = [0] * n_ops
        self_ns = [0] * n_ops
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        # A cache miss is a get_or_compute span that ran power_sums_exact.
        exact_op = self.ops.index("moments.exact")
        lookup_op = self.ops.index("cache.get_or_compute")
        missed = set()
        for i, (op, start, end, parent, succeeded) in enumerate(self.spans):
            calls[op] += 1
            ok[op] += succeeded
            total[op] += end - start
            self_ns[op] += end - start - child_ns[i]
            if op == exact_op and parent >= 0 and self.spans[parent][0] == lookup_op:
                missed.add(parent)
        layers = {}
        for index, (op, layer, _, _) in enumerate(OPS):
            layers[layer] = layers.get(layer, 0) + self_ns[index]
        return {
            "ops": {
                op: {"calls": calls[i], "ok": ok[i], "total_s": total[i] / 1e9,
                     "self_s": self_ns[i] / 1e9}
                for i, op in enumerate(self.ops)
            },
            "layer_self_s": {k: v / 1e9 for k, v in layers.items()},
            "cache_misses": len(missed),
            "facts": dict(self.facts),
        }


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY_OUT -- CLI_ARGS...")
    start = _clock()
    import klmoments.cli

    import_s = (_clock() - start) / 1e9
    tracer = Tracer()
    tracer.install()
    try:
        code = klmoments.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        import json

        doc = tracer.summary()
        doc["cli_import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        with open(out_path + ".spans.json", "w") as fh:
            json.dump({"ops": tracer.ops, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
