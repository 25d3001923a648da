"""Command-line interface.

Exit codes: 0 on success (all requested checks passed), 1 when a
verification fails (or on an internal error), 2 on usage errors and on
input outside the documented domain.  Every command accepts --json, which
wraps the output in the envelope

    {"command": ..., "inputs": ..., "result": ..., "checks": [...]}

All output is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from .autgroup import decompose, group_structure, parse_aut_word
from .cancellation import build_witness
from .errors import AlgebraError, InputError, ParseError
from .expmaps import (
    CheckResult,
    ExponentialMap,
    VerificationReport,
    build_exponential,
    degree,
    derivation,
    make_exponential,
    verify_exponential,
)
from .grading import homogenize
from .ioformats import (
    MAX_EXPONENT,
    _offset,
    format_aut_word,
    format_generator_map,
    format_relem,
    parse_generator_map,
    parse_poly,
    parse_ring_spec,
    parse_weights,
    read_exponent,
)
from .isoclass import classify, witness
from .scalars import FieldSpec, int_to_str, rational_to_str, read_int
from .surface import normal_form


class UsageError(Exception):
    pass


class _Help(Exception):
    """-h or --help was given; carries the help text."""


def _int(text: str) -> int:
    try:
        return read_int(text, 0, "int")
    except ParseError:
        import argparse  # loaded: only the argument parser calls _int

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# The arguments that are not required plain strings; every command takes
# --json.
_ARGUMENTS = {
    "--json": {"action": "store_true", "help": "emit the JSON envelope"},
    "--coeff": {"action": "append", "required": True, "metavar": "E:POLY",
                "help": "one F-term, e.g. 1:1+x (repeatable)"},
    "--order": {"type": _int, "required": True},
    "--n1": {"type": _int, "required": True},
    "--n2": {"type": _int, "required": True},
    "--field": {"default": "Q"},
}


@functools.cache
def _parser():
    """The argument parser, built on first use: dispatch reads a well-formed
    argv without it (_read_argv), so it loads only for help and refusals."""
    import argparse
    import re

    class _Formatter(argparse.HelpFormatter):
        def format_help(self):
            text = super().format_help()
            # the sections point back at the formatter and at their parent
            # section: unlink them, so that reference counts free them all
            self._root_section.items.clear()
            self._root_section = self._current_section = None
            return text

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            kwargs.setdefault("formatter_class", _Formatter)
            super().__init__(*args, **kwargs)
            # argparse reads a token that names no option as a value when it
            # looks like a negative number; widen that to every token that
            # starts with one '-', so that --expr -x reads the expression -x.
            self._negative_number_matcher = re.compile(r"-[^-]")

        def error(self, message):
            raise UsageError(message)

        def print_help(self, file=None):
            # the -h action prints and exits; dispatch returns the text
            # instead, without the final newline that main()'s print adds back
            raise _Help(self.format_help().rstrip("\n"))

    parser = _Parser(prog="dansurf", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", **_ARGUMENTS["--json"])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, arguments) in _HANDLERS.items():
        p = sub.add_parser(command, parents=[common])
        for name in arguments.split():
            p.add_argument(name, **_ARGUMENTS.get(name, {"required": True}))
    return parser


class _Outcome:
    """One command's output: the envelope's inputs and result, the text
    printed without --json, and the report whose checks the envelope lists
    and whose verdict sets the exit code."""

    __slots__ = ("inputs", "result", "text", "report")

    def __init__(self, inputs: dict, result, text: str,
                 report: VerificationReport = VerificationReport(())):
        self.inputs = inputs
        self.result = result
        self.text = text
        self.report = report


def _check_lines(report: VerificationReport) -> list:
    return [f"{c.name}: {'PASS' if c.passed else 'FAIL ' + c.detail}" for c in report.checks]


def _cmd_normal_form(args):
    spec = parse_ring_spec(args.ring)
    text = format_relem(normal_form(spec, parse_poly(args.expr, spec.field)))
    return _Outcome({"ring": spec, "expr": args.expr}, text, text)


def _cmd_exp_build(args):
    spec = parse_ring_spec(args.ring)
    coeffs = []
    for item in args.coeff:
        e_text, colon, poly_text = item.partition(":")
        if not colon:
            raise ParseError(f"coefficient {item!r} must look like E:POLY", 0)
        e = read_exponent(e_text, 0, f"exponent {e_text!r} in coefficient {item!r}")
        if 2 * e > MAX_EXPONENT:  # so that the printed map parses back
            raise ParseError(f"exponent {e} exceeds {MAX_EXPONENT // 2}, as the y-image "
                             f"would carry U^{2 * e}", 0)
        with _offset(len(e_text) + 1):
            coeffs.append((e, parse_poly(poly_text, spec.field)))
    text = format_generator_map(build_exponential(spec, coeffs).images)
    return _Outcome({"ring": spec, "coeff": args.coeff}, text, text)


def _cmd_exp_verify(args):
    spec = parse_ring_spec(args.ring)
    report = verify_exponential(ExponentialMap(spec, parse_generator_map(args.map, spec)))
    verdict = "verified" if report.passed else "failed"
    return _Outcome({"ring": spec, "map": args.map}, verdict,
                    "\n".join(_check_lines(report) + [verdict]), report)


def _cmd_exp_degree(args):
    spec = parse_ring_spec(args.ring)
    phi = make_exponential(spec, parse_generator_map(args.map, spec))
    d = degree(phi, normal_form(spec, parse_poly(args.expr, spec.field)))
    text = "-inf" if d == float("-inf") else str(int(d))
    return _Outcome({"ring": spec, "map": args.map, "expr": args.expr}, text, text)


def _cmd_derive(args):
    spec = parse_ring_spec(args.ring)
    phi = make_exponential(spec, parse_generator_map(args.map, spec))
    a = normal_form(spec, parse_poly(args.expr, spec.field))
    text = format_relem(derivation(phi, args.order, a))
    return _Outcome({"ring": spec, "map": args.map, "expr": args.expr,
                     "order": args.order}, text, text)


def _cmd_homogenize(args):
    spec = parse_ring_spec(args.ring)
    images = parse_generator_map(args.map, spec)
    w = parse_weights(args.weights)
    with _offset(args.weights.rindex("}")):  # every carrier needs a weight
        for var in sorted(images, key="xyzT".index):
            w.weight(var)
    result = homogenize(make_exponential(spec, images), w)
    bar_map = format_generator_map(result.bar.images)
    lines = [
        f"grdeg(U) = {rational_to_str(result.parameter_weight)}",
        f"target = {result.target}",
        f"bar map: {bar_map}",
    ]
    for g in sorted(result.s_sets):
        lines.append(f"S({g}) = {{{', '.join(str(i) for i in result.s_sets[g])}}}")
    return _Outcome(
        {"ring": spec, "map": args.map, "weights": args.weights, "target": result.target},
        {"parameter_weight": rational_to_str(result.parameter_weight), "bar_map": bar_map,
         "s_sets": {g: list(v) for g, v in sorted(result.s_sets.items())}},
        "\n".join(lines))


def _cmd_aut_apply(args):
    spec = parse_ring_spec(args.ring)
    word = parse_aut_word(args.word, spec)
    a = normal_form(spec, parse_poly(args.expr, spec.field))
    text = format_relem(word.apply(a))
    return _Outcome({"ring": spec, "word": args.word, "expr": args.expr}, text, text)


def _cmd_aut_compose(args):
    spec = parse_ring_spec(args.ring)
    text = str(parse_aut_word(args.word, spec))
    return _Outcome({"ring": spec, "word": args.word}, text, text)


def _cmd_aut_decompose(args):
    spec = parse_ring_spec(args.ring)
    text = format_aut_word(*decompose(parse_aut_word(args.word, spec)))
    return _Outcome({"ring": spec, "word": args.word}, text, text)


def _cmd_aut_structure(args):
    spec = parse_ring_spec(args.ring)
    gs = group_structure(spec)
    lines = [
        f"m = {gs.m}",
        f"L = {gs.l_description}"
        + (f" (order {gs.l_order})" if gs.l_order is not None else ""),
        f"H = {gs.h_description}",
        f"N = {gs.n_description}",
    ]
    return _Outcome({"ring": spec},
                    {"m": gs.m, "l_order": gs.l_order, "l": gs.l_description,
                     "h": gs.h_description, "n": gs.n_description},
                    "\n".join(lines))


def _cmd_iso_check(args):
    import json  # on first use: only JSON output needs it

    left = parse_ring_spec(args.left)
    right = parse_ring_spec(args.right)
    verdict = classify(left, right)
    payload = {
        "isomorphic": verdict.isomorphic,
        "eta": str(verdict.eta) if verdict.eta is not None else None,
        "mu": str(verdict.mu) if verdict.mu is not None else None,
        "reason": verdict.reason,
    }
    checks = ()
    if verdict.isomorphic:
        # witness() raises unless the relation maps to zero
        images = witness(left, right, verdict)
        checks = (CheckResult("witness_relation", True, format_generator_map(images)),)
    return _Outcome({"left": left, "right": right},
                    payload, json.dumps(payload), VerificationReport(checks))


def _cmd_cancel_verify(args):
    field = FieldSpec.parse(args.field)
    w = build_witness(field, args.n1, args.n2)
    s = format_relem(w.s)
    return _Outcome({"n1": args.n1, "n2": args.n2, "field": field.label},
                    {"passed": w.report.passed, "s": s},
                    "\n".join(_check_lines(w.report) + [f"s = {s}"]), w.report)


# Each command's handler and its arguments, in --help order.
_HANDLERS = {
    "normal-form": (_cmd_normal_form, "--ring --expr"),
    "exp-build": (_cmd_exp_build, "--ring --coeff"),
    "exp-verify": (_cmd_exp_verify, "--ring --map"),
    "exp-degree": (_cmd_exp_degree, "--ring --map --expr"),
    "derive": (_cmd_derive, "--ring --map --expr --order"),
    "homogenize": (_cmd_homogenize, "--ring --map --weights"),
    "aut-apply": (_cmd_aut_apply, "--ring --word --expr"),
    "aut-compose": (_cmd_aut_compose, "--ring --word"),
    "aut-decompose": (_cmd_aut_decompose, "--ring --word"),
    "aut-structure": (_cmd_aut_structure, "--ring"),
    "iso-check": (_cmd_iso_check, "--left --right"),
    "cancel-verify": (_cmd_cancel_verify, "--n1 --n2 --field"),
}


def _argv_table() -> dict:
    """For each command, what _parser() reads from its arguments: the
    namespace it starts from (each dest at its default), each option's dest
    and action ("int" for a --order, --n1 or --n2 that _int converts), and
    the required dests."""
    table = {}
    for command, (_, arguments) in _HANDLERS.items():
        start, options, required = {"command": command}, {}, []
        for name in ["--json"] + arguments.split():
            spec = _ARGUMENTS.get(name, {"required": True})
            dest, action = name[2:], spec.get("action", "store")
            start[dest] = spec.get("default", False if action == "store_true" else None)
            options[name] = (dest, "int" if spec.get("type") is _int else action)
            if spec.get("required"):
                required.append(dest)
        table[command] = (start, options, required)
    return table


_ARGV = _argv_table()


def _read_argv(argv):
    """The namespace that _parser() returns for a well-formed argv: a command,
    then that command's options by their exact names, each but --coeff at
    most once, each but --json with one value that does not start with '-',
    every required one and only valid ints.  None for any other argv, which
    _parser() reads, refuses or answers with help."""
    entry = _ARGV.get(argv[0]) if argv else None
    if entry is None:
        return None
    start, options, required = entry
    values, given = dict(start), set()
    i, n = 1, len(argv)
    while i < n:
        option = options.get(argv[i])
        if option is None:
            return None
        dest, action = option
        if dest in given and action != "append":
            return None
        given.add(dest)
        if action == "store_true":
            values[dest] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1][:1] == "-":
            return None
        value = argv[i + 1]
        i += 2
        if action == "append":
            values[dest] = (values[dest] or []) + [value]
        elif action == "int":
            try:
                values[dest] = read_int(value, 0, "int")
            except ParseError:
                return None
        else:
            values[dest] = value
    if not given.issuperset(required):
        return None
    return SimpleNamespace(**values)


def dispatch(argv) -> tuple:
    """Run one CLI invocation; returns (exit_code, output_text).  -h or
    --help returns (0, help_text)."""
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except UsageError as exc:
            return 2, f"usage error: {exc}"
        except _Help as exc:
            return 0, exc.args[0]
    try:
        out = _HANDLERS[args.command][0](args)
    except InputError as exc:
        return 2, f"input error: {exc}"
    except AlgebraError as exc:
        return 1, f"error: {exc}"
    code = 0 if out.report.passed else 1
    if not args.json:
        return code, out.text
    import json  # on first use: only JSON output needs it

    checks = [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in out.report.checks]
    # the inputs are written one by one, as json.dumps writes them: an int by
    # int_to_str, exact past the interpreter's digit limit (as --order may
    # be), and a parsed ring spec by its canonical text
    inputs = ", ".join(f'"{k}": ' + (int_to_str(v) if type(v) is int else
                                      json.dumps(v if type(v) in (str, list) else str(v)))
                       for k, v in out.inputs.items())
    return code, (f'{{"command": "{args.command}", "inputs": {{{inputs}}}, '
                  f'"result": {json.dumps(out.result)}, "checks": {json.dumps(checks)}}}')


def main(argv=None) -> int:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 else sys.stderr
    print(text, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
