"""Span tracing for the benchmark's traced run.

Wraps the public functions of each dpaudit module in place, at every
binding site: ``pipeline`` and ``cli`` import ``eps_lower_bound`` and
``p_value_audit`` by name, and ``dpsgd`` imports ``gaussian_dp_eps`` by
name, so every module attribute that refers to a wrapped function is
replaced, and the ``DominatingDistribution`` / ``LossModel`` classmethods
are replaced on their classes.  Nothing under ``src/`` is edited, and
:meth:`Tracer.restore` puts every original back.

Spans are kept in memory as ``[name, site, start_ns, end_ns, parent, op,
work]``, where ``site`` is the module whose attribute was called and
``work`` is a count computed from the call's arguments.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


# (metric group, owner module, attribute, work count computed from arguments)
TARGETS = [
    ("estimator.eps_lower_bound", "estimator", "eps_lower_bound", None),
    ("estimator.p_value_audit", "estimator", "p_value_audit", None),
    ("estimator.dual_alpha", "estimator", "dual_alpha",
     lambda a: min(a["m"], max(a["v"], 1))),
    ("estimator.survival_table", "estimator",
     "DominatingDistribution.from_binomial", lambda a: a["n"] + 1),
    ("estimator.survival_table", "estimator",
     "DominatingDistribution.from_pmf", lambda a: len(a["pmf"])),
    ("mechanisms.sampler", "mechanisms", "randomized_response", None),
    ("mechanisms.sampler", "mechanisms", "pathological", None),
    ("mechanisms.sampler", "mechanisms", "gaussian_report", None),
    ("mechanisms.accounting", "mechanisms", "gaussian_dp_eps", None),
    ("mechanisms.accounting", "mechanisms", "gaussian_dp_delta", None),
    ("mechanisms.accounting", "mechanisms", "expected_correct_gaussian", None),
    ("pipeline.sample_selection", "pipeline", "sample_selection", None),
    ("pipeline.make_guesses", "pipeline", "make_guesses", None),
    ("pipeline.count_correct", "pipeline", "count_correct", None),
    ("pipeline.audit_run", "pipeline", "audit_run", None),
    ("pipeline.k_sweep", "pipeline", "k_sweep", None),
    ("dpsgd.train", "dpsgd", "dpsgd_train", lambda a: a["cfg"].ell),
    ("dpsgd.scores", "dpsgd", "whitebox_scores", None),
    ("dpsgd.scores", "dpsgd", "blackbox_scores", None),
    ("dpsgd.setup", "dpsgd", "LossModel.canary_only", None),
    ("dpsgd.setup", "dpsgd", "LossModel.synthetic", None),
    ("dpsgd.setup", "dpsgd", "dirac_canaries", None),
    ("dpsgd.setup", "dpsgd", "mislabeled_canaries", None),
    ("cli.main", "cli", "main", None),
    ("cli.run_dpsgd_audit", "cli", "run_dpsgd_audit", None),
]

# Groups whose timings are split by the op's kind (the DP-SGD configs).
SPLIT_BY_KIND = ("dpsgd.train", "dpsgd.scores", "dpsgd.setup")


class Tracer:
    """Installs span wrappers, records spans and op boundaries in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[int, int, int]] = []  # (op id, start_ns, end_ns)
        self.groups: dict[str, str] = {}           # span name -> metric group
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, site, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        bind = inspect.signature(fn).bind if work else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = work(bind(*args, **kwargs).arguments) if work else 0
            rec = [name, site, 0, 0, stack[-1] if stack else -1, tracer.op,
                   count]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = {name.rpartition(".")[2]: mod
                   for name, mod in list(sys.modules.items())
                   if name == "dpaudit" or name.startswith("dpaudit.")}
        for group, owner, attr, work in TARGETS:
            name = f"{owner}.{attr}"
            self.groups[name] = group
            if "." in attr:  # classmethod: replace the descriptor on its class
                cls_name, meth = attr.split(".")
                cls = getattr(modules[owner], cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(name, owner, original.__func__, work)
                setattr(cls, meth, classmethod(wrapped))
                self._patches.append((cls, meth, original))
                continue
            original = getattr(modules[owner], attr)
            for site, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, self._wrap(name, site, original, work))
                        self._patches.append((mod, key, original))

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        return all(vars(obj)[key] is original
                   for obj, key, original in self._patches)

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        self.ops.append((self.op, self._op_start, time.perf_counter_ns()))
        self.op = -1

    def fired(self) -> set[str]:
        """Every ``name@site`` that recorded at least one span."""
        return {f"{rec[0]}@{rec[1]}" for rec in self.spans}

    def aggregate(self, kinds: dict[int, str]) -> dict[str, float]:
        """Per-layer totals; ``kinds`` maps an op id to its config label.

        calls and busy_s count only spans with no ancestor in the same
        group, so nested calls (gaussian_dp_delta inside gaussian_dp_eps)
        are not counted twice.  self_s is busy time minus the time of
        direct child spans.
        """
        spans, groups = self.spans, self.groups
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child_ns[rec[4]] += rec[3] - rec[2]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        evals_in_lb = 0
        for i, rec in enumerate(spans):
            group = groups[rec[0]]
            ancestors, p = [], rec[4]
            while p >= 0:
                ancestors.append(groups[spans[p][0]])
                p = spans[p][4]
            if group == "estimator.survival_table" and \
                    "estimator.eps_lower_bound" in ancestors:
                evals_in_lb += 1
            if group in ancestors:
                continue
            if group in SPLIT_BY_KIND:
                group = f"{group}.{kinds.get(rec[5], 'none')}"
            dur = rec[3] - rec[2]
            add(f"{group}.calls", 1)
            add(f"{group}.busy_s", dur / 1e9)
            add(f"{group}.self_s", (dur - child_ns[i]) / 1e9)
            add(f"{group}.work", rec[6])
        top_ns: dict[int, int] = {}
        for rec in spans:
            if rec[4] < 0:
                top_ns[rec[5]] = top_ns.get(rec[5], 0) + rec[3] - rec[2]
        out["trace.unattributed_s"] = sum(
            end - start - top_ns.get(op, 0) for op, start, end in self.ops) / 1e9
        lb_calls = out.get("estimator.eps_lower_bound.calls", 0)
        out["estimator.pvalue_evals_per_lb"] = (
            evals_in_lb / lb_calls if lb_calls else 0)
        out["estimator.survival_table.entries"] = out.pop(
            "estimator.survival_table.work", 0)
        out["estimator.dual_alpha.scan_len"] = out.pop(
            "estimator.dual_alpha.work", 0)
        for kind in ("W", "B"):
            steps = out.pop(f"dpsgd.train.{kind}.work", 0)
            out[f"dpsgd.train.{kind}.steps"] = steps
            out[f"dpsgd.train.{kind}.step_ms"] = (
                out.get(f"dpsgd.train.{kind}.busy_s", 0) * 1e3 / steps
                if steps else 0)
        return {k: v for k, v in out.items() if not k.endswith(".work")}

    def write(self, path, header: dict) -> None:
        """Write the spans as JSON lines, times relative to the first op."""
        t0 = self.ops[0][1] if self.ops else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, site, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, site, start - t0, end - t0,
                                     parent, op]) + "\n")
