"""Command-line front end.

One verb per library operation family, in one pipeline: main parses the
arguments and loads the morphism, the verb's handler makes its library call
and returns (payload, text, exit code), and main writes the payload as JSON
for --format json and the verb's own rendering otherwise. text is a callable,
so a rendering that is not printed is never built. Exit codes: 0 for definite
answers and successful emissions, 2 when the outcome is a bounded search that
found nothing definite (Unknown verdicts, empty scans), 1 for input errors.
Output is byte-stable for fixed inputs and versions: reports carry no
timestamps and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .analysis import (
    abelian_period_oracle,
    complexity_profile,
    heights_to_csv,
    lattice_path_heights,
)
from .classify import (
    ANSWER_UNKNOWN,
    ClassifyOptions,
    classify,
    verdict_report,
)
from .errors import AbmorphError
from .lift import build_lift, dfao_dot, dfao_table, is_bijective
from .periodic import decide_periodic
from .rank1 import _rank1_form, block_position_residues, decide_pure, eventual_scan
from .words import BinaryMorphism, fixed_point_prefix, parse_morphism


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 means Unknown here, so
    # usage problems are turned into exceptions and mapped to exit 1
    def error(self, message):
        raise _UsageError(message)


# What a verb's handler returns: the JSON payload, a callable rendering the
# verb's own text format, and the exit code.
_Result = tuple[object, Callable[[], str], int]


def _dumps(obj) -> str:
    # numpy arrays (the path heights) are written as lists
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda a: a.tolist()) + "\n"


def _load_morphism(source: str) -> BinaryMorphism:
    if os.path.exists(source):
        with open(source, "r", encoding="ascii") as fh:
            return parse_morphism(fh.read())
    return parse_morphism(source)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _options_from(args) -> ClassifyOptions:
    return ClassifyOptions(
        eventual_k_max=args.kmax,
        horizon=args.horizon,
        max_period=args.max_period,
        max_preperiod=args.max_preperiod,
        max_configurations=args.max_configurations,
    )


def _classify_text(report: dict) -> str:
    lines = [
        f"morphism: {report['morphism']['text']}",
        f"matrix: {report['matrix']}",
        f"answer: {report['answer']}",
        f"certainty: {report['certainty']}",
        f"reason: {report['reason']}",
    ]
    claimed = report["witnesses"]["claimed_abelian_period"]
    if claimed is not None:
        lines.append(
            f"claimed abelian period: preperiod {claimed['preperiod']},"
            f" period {claimed['period']}"
        )
    return "\n".join(lines) + "\n"


def _unknown_code(reports: list[dict]) -> int:
    return 2 if any(r["answer"] == ANSWER_UNKNOWN for r in reports) else 0


def _cmd_classify(f, args) -> _Result:
    opts = _options_from(args)
    if f is not None:
        report = verdict_report(f, classify(f, opts))
        return report, lambda: _classify_text(report), _unknown_code([report])
    with open(args.corpus, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    sources = [ln for ln in lines if ln and not ln.startswith("#")]
    reports = [verdict_report(g, classify(g, opts)) for g in map(parse_morphism, sources)]
    return reports, lambda: "".join(_classify_text(r) + "\n" for r in reports), _unknown_code(reports)


def _cmd_pure(f, args) -> _Result:
    verdict = decide_pure(f, max_configurations=args.max_configurations)
    payload = {"morphism": f.to_text(), **verdict.to_json()}
    code = 2 if verdict.status == "resource_exhausted" else 0
    return payload, lambda: "".join(f"{k}: {v}\n" for k, v in payload.items()), code


def _cmd_eventual(f, args) -> _Result:
    budget = ClassifyOptions().eventual_offset_budget
    w, k_scanned = eventual_scan(f, _rank1_form(f), args.kmax, budget)
    payload = {
        "morphism": f.to_text(),
        "k_max": args.kmax,
        "k_scanned": k_scanned,
        "witness": None if w is None else w.to_json(),
    }
    if w is None:
        return payload, lambda: f"no eventual witness for k <= {k_scanned}\n", 2
    return payload, lambda: f"witness: k {w.k}, cut offset {w.cut_offset}, period {w.period}\n", 0


def _cmd_prefix(f, args) -> _Result:
    prefix = str(fixed_point_prefix(f, args.length))
    payload = {"morphism": f.to_text(), "length": len(prefix), "prefix": prefix}
    return payload, lambda: prefix + "\n", 0


def _cmd_complexity(f, args) -> _Result:
    profile = complexity_profile(fixed_point_prefix(f, args.horizon), args.nmax)
    rows = [{"length": n, "complexity": c, "imbalance": i} for n, c, i in profile.rows()]
    payload = {"morphism": f.to_text(), "horizon": profile.horizon, "rows": rows}
    return payload, profile.to_csv, 0


def _cmd_path(f, args) -> _Result:
    heights = lattice_path_heights(fixed_point_prefix(f, args.length))
    payload = {"morphism": f.to_text(), "length": args.length, "heights": heights}
    return payload, lambda: heights_to_csv(heights), 0


def _cmd_lift(f, args) -> _Result:
    lift = build_lift(f, _rank1_form(f))

    def text():
        lines = [f"uniform lift, block length {lift.k}, {lift.size} states"]
        for s in range(lift.size):
            image = " ".join(str(t + 1) for t in lift.images[s])
            lines.append(
                f"state {s + 1} ({lift.state_label(s)}) -> [{image}] / {lift.coding[s]}"
            )
        lines.append(f"bijective: {'yes' if is_bijective(lift) else 'no'}")
        return "\n".join(lines) + "\n"

    return {"morphism": f.to_text(), "lift": dfao_table(lift)}, text, 0


def _cmd_dfao(f, args) -> _Result:
    lift = build_lift(f, _rank1_form(f))
    return dfao_table(lift), lambda: dfao_dot(lift), 0


def _cmd_oracle(f, args) -> _Result:
    prefix = fixed_point_prefix(f, args.horizon)
    w = abelian_period_oracle(prefix, args.max_period, args.max_preperiod)
    payload = {
        "morphism": f.to_text(),
        "horizon": len(prefix),
        "max_period": args.max_period,
        "max_preperiod": args.max_preperiod,
        "witness": None if w is None else {"preperiod": w.preperiod, "period": w.period},
    }
    if w is None:
        return payload, lambda: "no abelian period within bounds\n", 2
    return payload, lambda: f"abelian period: preperiod {w.preperiod}, period {w.period}\n", 0


def _cmd_periodic(f, args) -> _Result:
    verdict = decide_periodic(f, args.max_period, args.max_preperiod)
    payload = {"morphism": f.to_text(), **verdict.to_json()}
    if not verdict.found:
        return payload, lambda: "no periodic presentation within bounds\n", 2
    u, w = payload["preperiod_word"], payload["period_word"]
    return payload, lambda: f"eventually periodic: preperiod {u!r}, period {w!r}\n", 0


def _cmd_residues(f, args) -> _Result:
    found = block_position_residues(f, _rank1_form(f), args.t, args.d, args.horizon)
    residues = sorted(found)
    complete = len(residues) == args.d  # residues lie in [0, d)
    payload = {
        "morphism": f.to_text(),
        "t": args.t,
        "d": args.d,
        "horizon": args.horizon,
        "residues": residues,
        "complete": complete,
    }

    def text():
        listed = " ".join(str(r) for r in residues)
        return f"residues mod {args.d}: {listed}\ncomplete: {'yes' if complete else 'no'}\n"

    return payload, text, 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="abmorph",
        description="Classify fixed points of binary morphisms by abelian periodicity.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    defaults = ClassifyOptions()

    def add(verb, handler, help_text, formats):
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument(
            "morphism",
            nargs="?" if verb == "classify" else None,
            help="morphism as 'a->WORD; b->WORD', JSON, or a file path",
        )
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        return p

    p = add("classify", _cmd_classify, "full classification with verdict report", ("json", "text"))
    p.add_argument("--corpus", default=None, help="file with one morphism per line")
    p.add_argument("--kmax", type=int, default=defaults.eventual_k_max, help="eventual witness scan depth")
    p.add_argument("--horizon", type=int, default=defaults.horizon, help="evidence prefix length")
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--max-preperiod", type=int, default=None)
    p.add_argument("--max-configurations", type=int, default=defaults.max_configurations)

    p = add("pure", _cmd_pure, "decide pure abelian periodicity (rank-1 only)", ("json", "text"))
    p.add_argument("--max-configurations", type=int, default=defaults.max_configurations)

    p = add("eventual", _cmd_eventual, "scan for an eventual abelian-period witness", ("json", "text"))
    p.add_argument("--kmax", type=int, default=defaults.eventual_k_max)

    p = add("prefix", _cmd_prefix, "emit a prefix of the fixed point", ("text", "json"))
    p.add_argument("--length", type=int, required=True)

    p = add("complexity", _cmd_complexity, "abelian complexity and imbalance table", ("csv", "json"))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--horizon", type=int, default=10**5)

    p = add("path", _cmd_path, "lattice path heights of a prefix", ("csv", "json"))
    p.add_argument("--length", type=int, required=True)

    add("lift", _cmd_lift, "uniform lift of a rank-1 morphism", ("json", "text"))

    add("dfao", _cmd_dfao, "automaton for the lifted fixed point", ("dot", "json"))

    p = add("oracle", _cmd_oracle, "sliding abelian-period scan on a prefix", ("json", "text"))
    p.add_argument("--horizon", type=int, default=10**5)
    p.add_argument("--max-period", type=int, default=200)
    p.add_argument("--max-preperiod", type=int, default=200)

    p = add("periodic", _cmd_periodic, "certified eventual-periodicity search", ("json", "text"))
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--max-preperiod", type=int, default=None)

    p = add("residues", _cmd_residues, "t-block-position residues of the first image block", ("json", "text"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--horizon", type=int, default=3**12)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "classify" and args.corpus is None and args.morphism is None:
            raise _UsageError("classify needs a morphism or --corpus")
        if args.verb == "classify" and args.corpus is not None and args.morphism is not None:
            raise _UsageError("classify takes a morphism or --corpus, not both")
        f = None if args.morphism is None else _load_morphism(args.morphism)
        payload, text, code = args.handler(f, args)
        _emit(_dumps(payload) if args.format == "json" else text(), args.output)
        return code
    except (_UsageError, AbmorphError, OSError, ValueError, MemoryError) as exc:
        print(f"abmorph: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
