"""Layer tracing from outside the library.

`instrument` rebinds the module-level names that callers look up (for
example `abmorph.classify.decide_periodic` or `abmorph.rank1.prefix_parikh`)
to timing wrappers, and restores them on exit. Coarse boundaries are recorded
as spans with a parent id and the id of the input being processed; hot calls
only update counters. Every wrapped call, span or not, adds its duration to
its caller's covered time, so self time is duration minus covered children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# "<module>.<function>" of abmorph; spans at coarse boundaries ...
SPANS = (
    "classify.classify",
    "classify.verdict_report",
    "classify.imbalance_evidence",
    "periodic.decide_periodic",
    "rank1.decide_pure",
    "rank1.eventual_check_at",
    "words.fixed_point_prefix",
    "analysis.abelian_period_oracle",
    "analysis.complexity_profile",
    "lift.build_lift",
    "lift.lift_verify",
    "lift.lift_fixed_prefix",
    "cli.main",
)
# ... and counters for calls made thousands of times per input.
COUNTERS = (
    "matrices.matrix_of",
    "matrices.spectral_profile",
    "matrices.letter_frequencies",
    "matrices.rank1_decompose",
    "rank1.prefix_parikh",
    "periodic.eq_eventually_periodic",
    "analysis.imbalance_at",
    "lift.dfao_eval",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)  # counts read off arguments and results
        self.spans: list[tuple] = []  # (id, parent id, input id, name, start, end)
        self.largest_expansion: tuple[int, str] | None = None
        self._stack: list[list[float]] = []
        self._span = None
        self._next_id = 0
        self._input = None

    def _enter(self, span: bool):
        parent = self._span
        if span:
            self._span = self._next_id
            self._next_id += 1
        frame = [0.0]
        self._stack.append(frame)
        return parent, frame, perf_counter()

    def _exit(self, name: str, span: bool, token) -> None:
        end = perf_counter()
        parent, frame, start = token
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if span:
            self.spans.append((self._span, parent, self._input, name, start, end))
            self._span = parent

    @contextmanager
    def op(self, name: str, input_id: int):
        """Root span for one benchmark operation on input `input_id`."""
        self._input = input_id
        token = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, True, token)
            self._input = None

    def wrap(self, name: str, fn, span: bool):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            before = self.calls["rank1.prefix_parikh"]
            token = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, span, token)
            if hook is not None:
                hook(self, args, kwargs, result, self.calls["rank1.prefix_parikh"] - before)
            return result

        return wrapper


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _expansion(t: Tracer, args, kwargs, result, _pp) -> None:
    t.work["words.fixed_point_prefix.letters"] += len(result)
    if t.largest_expansion is None or len(result) > t.largest_expansion[0]:
        t.largest_expansion = (len(result), _arg(args, kwargs, 0, "f").to_text())


def _lift_prefix(t: Tracer, args, kwargs, result, _pp) -> None:
    t.work["lift.lift_fixed_prefix.letters"] += len(result)


def _periodic(t: Tracer, args, kwargs, result, _pp) -> None:
    # decide_periodic materializes max_preperiod + 4 * max_period letters
    t.work["periodic.horizon_letters"] += result.max_preperiod + 4 * result.max_period


def _certify(t: Tracer, args, kwargs, result, _pp) -> None:
    t.work["periodic.certify.found"] += bool(result)


def _pure(t: Tracer, args, kwargs, result, _pp) -> None:
    t.work["rank1.decide_pure.configurations"] += result.iterations_used


def _eventual(t: Tracer, args, kwargs, result, prefix_parikh_calls: int) -> None:
    form, k = _arg(args, kwargs, 1, "form"), _arg(args, kwargs, 2, "k")
    period = form.block_unit * form.trace ** (k - 1)
    # the level scans offsets 0, 1, ... and stops at the first witness
    t.work["rank1.eventual.offsets"] += period if result is None else result.cut_offset + 1
    t.work["rank1.eventual.witnesses"] += result is not None
    t.work["rank1.eventual.prefix_parikh_calls"] += prefix_parikh_calls


def _windows(index: int, key: str):
    def hook(t: Tracer, args, kwargs, result, _pp) -> None:
        width = 1 if key is None else _arg(args, kwargs, index, key)
        t.work["analysis.windows"] += len(_arg(args, kwargs, 0, "source")) * width

    return hook


_HOOKS = {
    "words.fixed_point_prefix": _expansion,
    "lift.lift_fixed_prefix": _lift_prefix,
    "periodic.decide_periodic": _periodic,
    "periodic.eq_eventually_periodic": _certify,
    "rank1.decide_pure": _pure,
    "rank1.eventual_check_at": _eventual,
    "analysis.abelian_period_oracle": _windows(1, "max_period"),
    "analysis.complexity_profile": _windows(1, "nmax"),
    "analysis.imbalance_at": _windows(1, None),
}


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every abmorph module's reference to each traced function."""
    modules = [m for n, m in list(sys.modules.items()) if n == "abmorph" or n.startswith("abmorph.")]
    patched = []
    try:
        for names, span in ((SPANS, True), (COUNTERS, False)):
            for name in names:
                module, attr = name.split(".")
                original = getattr(sys.modules["abmorph." + module], attr)
                wrapper = tracer.wrap(name, original, span)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
