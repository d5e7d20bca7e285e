"""Spans wrapped around calls into fptrace, for the traced run.

The library is not instrumented itself: each span comes from a wrapper that
this file installs at the name a caller looks up (a module attribute that
another module imported by name, or a method on its class), and removes
again before the correctness checks run.  Spans stay in memory and are
written out once, when the run ends.
"""

import gzip
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SETUP_OP = -1


class Tracer:
    """Span recorder: one span per wrapped call, nested by a call stack.

    A span is (name, start, end, parent span id, operation id); its id is its
    index in ``spans``.  ``op`` is the id of the benchmark operation being run,
    drawn from ``op_ids``, so every span of one operation shares it; spans of
    set-up and of untimed input generation carry ``SETUP_OP``.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.rows_seen = set()
        self.op = SETUP_OP
        self.op_ids = itertools.count()
        self.names = set()
        self._stack = [-1]
        self._patches = []
        self._origin = time.perf_counter()

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, t0, t1, parent, self.op)

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, parent, t0)

    def wrap(self, name, fn, note=None):
        """``fn`` with a span around each call; ``note(args, result)`` records
        counters from the call's arguments and result."""

        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, name, parent, t0)
            if note is not None:
                note(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, note=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, note))
        self.names.add(name)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, lib):
        """Wrap every layer boundary the workloads cross."""
        codec, collusion, decoders = lib.codec, lib.collusion, lib.decoders
        rng, simlab = lib.rng, lib.simlab
        capacity, exponents, problems = lib.capacity, lib.exponents, lib.problems
        counts = self.counts

        def note_row(args, _out):
            book, user = args[0], args[1]
            self.rows_seen.add((book.seed, int(user)))

        def note_count_table(args, _out):
            counts["types_core.count_table.bytes_computed"] += sum(
                a.nbytes for a in args[0]
            )

        def note_decode(_args, out):
            counts["decoders.candidates_scored"] += out.evaluated

        def note_slsqp(_args, res):
            counts["games.exponents.slsqp.nfev"] += res.nfev
            counts["games.exponents.slsqp.success"] += bool(res.success)

        self.patch(rng, "derive", "rng.derive")
        self.patch(codec.Codebook, "row", "codec.row", note_row)
        for owner in (simlab, codec):
            self.patch(owner, "build_codebook", "codec.build_codebook")
        self.patch(codec, "read_codebook", "codec.read_codebook")
        self.patch(codec, "write_codebook", "codec.write_codebook")
        for owner, attr in (
            (simlab, "interleave"),
            (simlab, "apply_memoryless"),
            (collusion, "interleave"),
        ):
            self.patch(owner, attr, "collusion.attack")
        for owner in (decoders, collusion):
            self.patch(owner, "count_table", "types_core.count_table", note_count_table)
        self.patch(decoders, "entropy", "types_core.entropy")
        self.patch(decoders, "multi_info", "types_core.multi_info")
        for owner in (simlab, decoders):
            self.patch(owner, "mpmi_decode", "decoders.mpmi_decode", note_decode)
        self.patch(simlab, "threshold_decode", "decoders.threshold_decode", note_decode)
        self.patch(decoders, "guilt_indices", "decoders.guilt_indices")
        self.patch(decoders, "verify_significance", "decoders.verify_significance")
        self.patch(simlab, "run_trial", "simlab.run_trial")
        self.patch(simlab, "threshold_fp_fast", "simlab.threshold_fp_fast")
        self.patch(capacity, "payoff_value_grad", "games.problems.payoff_value_grad")
        for owner in (capacity, problems):
            self.patch(owner, "law_tensors", "games.problems.law_tensors")
        self.patch(capacity, "inner_min_channel", "games.capacity.inner_min_channel")
        self.patch(capacity, "minimize_scalar", "games.capacity.line_search")
        self.patch(exponents, "minimize", "games.exponents.slsqp", note_slsqp)

    def layer_metrics(self, stats):
        """Per-layer metrics from the spans, the counters and the workload's
        own outcome counts ``stats``.  A ratio with an empty base reads 0."""
        calls = Counter({name: 0 for name in self.names})
        total = defaultdict(float)
        own = defaultdict(float)
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        c = self.counts
        out.update(
            {
                "codec.row.distinct_frac": frac(len(self.rows_seen), calls["codec.row"]),
                "collusion.resample_frac": frac(
                    stats["attack.resamples"], calls["collusion.attack"]
                ),
                "types_core.count_table.bytes_computed": c[
                    "types_core.count_table.bytes_computed"
                ],
                "decoders.candidates_scored": c["decoders.candidates_scored"],
                "decoders.certified_frac": frac(
                    stats["decoders.certified"], stats["decoders.certifiable"]
                ),
                "decoders.exact_accuse_frac": frac(
                    stats["decoders.exact"], stats["decoders.decoded"]
                ),
                "games.capacity.value_evaluations": stats[
                    "games.capacity.value_evaluations"
                ],
                "games.exponents.slsqp.nfev": c["games.exponents.slsqp.nfev"],
                "games.exponents.slsqp.success_frac": frac(
                    c["games.exponents.slsqp.success"], calls["games.exponents.slsqp"]
                ),
            }
        )
        return out

    def write(self, path):
        """Spans as gzipped TSV: id, parent, op, name, start_s, end_s (seconds
        from tracer creation)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._origin
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\n")
