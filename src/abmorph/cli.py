"""Command-line front end.

One verb per library operation family. Exit codes: 0 for definite answers
and successful emissions, 2 when the outcome is a bounded search that found
nothing definite (Unknown verdicts, empty scans), 1 for input errors.
Output is byte-stable for fixed inputs and versions: reports carry no
timestamps and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
from .matrices import matrix_of, rank1_decompose
from .periodic import decide_periodic
from .rank1 import block_position_residues, decide_pure, eventual_scan
from .words import BinaryMorphism, fixed_point_prefix, parse_morphism


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 means Unknown here, so
    # usage problems are turned into exceptions and mapped to exit 1
    def error(self, message):
        raise _UsageError(message)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def _cmd_classify(args) -> tuple[str, int]:
    opts = _options_from(args)
    if args.corpus is not None:
        with open(args.corpus, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
        sources = [ln for ln in lines if ln and not ln.startswith("#")]
        reports = []
        for src in sources:
            f = parse_morphism(src)
            reports.append(verdict_report(f, classify(f, opts)))
        any_unknown = any(r["answer"] == ANSWER_UNKNOWN for r in reports)
        if args.format == "json":
            text = _dumps(reports)
        else:
            text = "".join(_classify_text(r) + "\n" for r in reports)
        return text, (2 if any_unknown else 0)
    f = _load_morphism(args.morphism)
    report = verdict_report(f, classify(f, opts))
    text = _dumps(report) if args.format == "json" else _classify_text(report)
    return text, (2 if report["answer"] == ANSWER_UNKNOWN else 0)


def _cmd_pure(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    verdict = decide_pure(f, max_configurations=args.max_configurations)
    payload = {"morphism": f.to_text(), **verdict.to_json()}
    if args.format == "json":
        text = _dumps(payload)
    else:
        text = "".join(f"{k}: {v}\n" for k, v in payload.items())
    return text, (2 if verdict.status == "resource_exhausted" else 0)


def _cmd_eventual(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    f.require_prolongable()
    form = rank1_decompose(matrix_of(f))
    budget = ClassifyOptions().eventual_offset_budget
    witness, k_scanned = eventual_scan(f, form, args.kmax, budget)
    payload = {
        "morphism": f.to_text(),
        "k_max": args.kmax,
        "k_scanned": k_scanned,
        "witness": None if witness is None else witness.to_json(),
    }
    if args.format == "json":
        text = _dumps(payload)
    elif witness is None:
        text = f"no eventual witness for k <= {k_scanned}\n"
    else:
        text = (
            f"witness: k {witness.k}, cut offset {witness.cut_offset},"
            f" period {witness.period}\n"
        )
    return text, (0 if witness is not None else 2)


def _cmd_prefix(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    prefix = fixed_point_prefix(f, args.length)
    if args.format == "json":
        return _dumps({"morphism": f.to_text(), "length": len(prefix), "prefix": str(prefix)}), 0
    return str(prefix) + "\n", 0


def _cmd_complexity(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    prefix = fixed_point_prefix(f, args.horizon)
    profile = complexity_profile(prefix, args.nmax)
    if args.format == "json":
        payload = {
            "morphism": f.to_text(),
            "horizon": profile.horizon,
            "rows": [
                {"length": n, "complexity": c, "imbalance": i}
                for n, c, i in profile.rows()
            ],
        }
        return _dumps(payload), 0
    return profile.to_csv(), 0


def _cmd_path(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    heights = lattice_path_heights(fixed_point_prefix(f, args.length))
    if args.format == "json":
        payload = {
            "morphism": f.to_text(),
            "length": args.length,
            "heights": [int(h) for h in heights],
        }
        return _dumps(payload), 0
    return heights_to_csv(heights), 0


def _cmd_lift(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    f.require_prolongable()
    lift = build_lift(f, rank1_decompose(matrix_of(f)))
    if args.format == "json":
        return _dumps({"morphism": f.to_text(), "lift": dfao_table(lift)}), 0
    lines = [f"uniform lift, block length {lift.k}, {lift.size} states"]
    for s in range(lift.size):
        image = " ".join(str(t + 1) for t in lift.images[s])
        lines.append(
            f"state {s + 1} ({lift.state_label(s)}) -> [{image}] / {lift.coding[s]}"
        )
    lines.append(f"bijective: {'yes' if is_bijective(lift) else 'no'}")
    return "\n".join(lines) + "\n", 0


def _cmd_dfao(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    f.require_prolongable()
    lift = build_lift(f, rank1_decompose(matrix_of(f)))
    if args.format == "json":
        return _dumps(dfao_table(lift)), 0
    return dfao_dot(lift), 0


def _cmd_oracle(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    prefix = fixed_point_prefix(f, args.horizon)
    witness = abelian_period_oracle(prefix, args.max_period, args.max_preperiod)
    payload = {
        "morphism": f.to_text(),
        "horizon": len(prefix),
        "max_period": args.max_period,
        "max_preperiod": args.max_preperiod,
        "witness": None
        if witness is None
        else {"preperiod": witness.preperiod, "period": witness.period},
    }
    if args.format == "json":
        text = _dumps(payload)
    elif witness is None:
        text = "no abelian period within bounds\n"
    else:
        text = f"abelian period: preperiod {witness.preperiod}, period {witness.period}\n"
    return text, (0 if witness is not None else 2)


def _cmd_periodic(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    verdict = decide_periodic(f, args.max_period, args.max_preperiod)
    payload = {"morphism": f.to_text(), **verdict.to_json()}
    if args.format == "json":
        text = _dumps(payload)
    elif verdict.found:
        text = (
            f"eventually periodic: preperiod {payload['preperiod_word']!r},"
            f" period {payload['period_word']!r}\n"
        )
    else:
        text = "no periodic presentation within bounds\n"
    return text, (0 if verdict.found else 2)


def _cmd_residues(args) -> tuple[str, int]:
    f = _load_morphism(args.morphism)
    f.require_prolongable()
    form = rank1_decompose(matrix_of(f))
    residues = sorted(
        block_position_residues(f, form, args.t, args.d, args.horizon)
    )
    complete = residues == list(range(args.d))
    payload = {
        "morphism": f.to_text(),
        "t": args.t,
        "d": args.d,
        "horizon": args.horizon,
        "residues": residues,
        "complete": complete,
    }
    if args.format == "json":
        text = _dumps(payload)
    else:
        listed = " ".join(str(r) for r in residues)
        text = f"residues mod {args.d}: {listed}\ncomplete: {'yes' if complete else 'no'}\n"
    return text, 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="abmorph",
        description="Classify fixed points of binary morphisms by abelian periodicity.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    defaults = ClassifyOptions()

    def add(verb, handler, help_text, default_format, formats, needs_morphism=True):
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(handler=handler)
        if needs_morphism:
            p.add_argument(
                "morphism",
                nargs="?" if verb == "classify" else None,
                help="morphism as 'a->WORD; b->WORD', JSON, or a file path",
            )
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        return p

    p = add("classify", _cmd_classify, "full classification with verdict report", "json", ("json", "text"))
    p.add_argument("--corpus", default=None, help="file with one morphism per line")
    p.add_argument("--kmax", type=int, default=defaults.eventual_k_max, help="eventual witness scan depth")
    p.add_argument("--horizon", type=int, default=defaults.horizon, help="evidence prefix length")
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--max-preperiod", type=int, default=None)
    p.add_argument("--max-configurations", type=int, default=defaults.max_configurations)

    p = add("pure", _cmd_pure, "decide pure abelian periodicity (rank-1 only)", "json", ("json", "text"))
    p.add_argument("--max-configurations", type=int, default=defaults.max_configurations)

    p = add("eventual", _cmd_eventual, "scan for an eventual abelian-period witness", "json", ("json", "text"))
    p.add_argument("--kmax", type=int, default=defaults.eventual_k_max)

    p = add("prefix", _cmd_prefix, "emit a prefix of the fixed point", "text", ("text", "json"))
    p.add_argument("--length", type=int, required=True)

    p = add("complexity", _cmd_complexity, "abelian complexity and imbalance table", "csv", ("csv", "json"))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--horizon", type=int, default=10**5)

    p = add("path", _cmd_path, "lattice path heights of a prefix", "csv", ("csv", "json"))
    p.add_argument("--length", type=int, required=True)

    add("lift", _cmd_lift, "uniform lift of a rank-1 morphism", "json", ("json", "text"))

    add("dfao", _cmd_dfao, "automaton for the lifted fixed point", "dot", ("dot", "json"))

    p = add("oracle", _cmd_oracle, "sliding abelian-period scan on a prefix", "json", ("json", "text"))
    p.add_argument("--horizon", type=int, default=10**5)
    p.add_argument("--max-period", type=int, default=200)
    p.add_argument("--max-preperiod", type=int, default=200)

    p = add("periodic", _cmd_periodic, "certified eventual-periodicity search", "json", ("json", "text"))
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--max-preperiod", type=int, default=None)

    p = add("residues", _cmd_residues, "t-block-position residues of the first image block", "json", ("json", "text"))
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
        text, code = args.handler(args)
        _emit(text, args.output)
        return code
    except (_UsageError, AbmorphError, OSError, ValueError) as exc:
        print(f"abmorph: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
