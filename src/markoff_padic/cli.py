"""Command-line front end producing machine-readable JSON reports.

Every subcommand writes one report whose mathematical payload is a pure
function of the configuration: iteration orders are fixed and no wall-clock
data is recorded, so identical configurations yield byte-identical reports.
Exit status: 0 when all checks pass, 1 on a mathematical failure, 2 on a
usage error (an unwritable --out or --csv path is one, refused before the
command runs).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from . import census, certify, chebyshev, flow, polydisk
from .padic import PadicInt, sqrt
from .surface import ALL_LETTERS

# a denominator only after a parenthesized numerator, and parentheses in pairs
_D_PATTERN = re.compile(
    r"^(\()?\s*(-?\d+)\s*([+-])\s*(?:(\d+)\s*\*\s*)?sqrt\(\s*(-?\d+)\s*\)"
    r"\s*(?(1)\)\s*(?:/\s*(\d+))?)$"
)


def parse_parameter(text: str, p: int, k: int) -> PadicInt:
    """Parse the surface parameter: an integer, 'a+b*sqrt(c)' or '(a+b*sqrt(c))/den'."""
    text = text.strip()
    try:
        literal = int(text)
    except ValueError:
        literal = None
    if literal is not None:
        return PadicInt(p, k, literal)
    m = _D_PATTERN.match(text)
    if not m:
        raise ValueError(
            f"cannot parse parameter {text!r}; use an integer or forms like "
            "'3+sqrt(2)' or '(5-sqrt(5))/2'"
        )
    _, a, sign, b, c, den = m.groups()
    root = sqrt(PadicInt(p, k, int(c)))
    value = PadicInt(p, k, int(a))
    coeff = int(b) if b else 1
    value = value + root * coeff if sign == "+" else value - root * coeff
    if den:
        value = value * PadicInt(p, k, int(den)).invert()
    return value


def _report(args, command: str, result: dict, passed: bool) -> dict:
    return {
        "schema_version": certify.SCHEMA_VERSION,
        "command": command,
        "config": {
            "p": args.p,
            "k": args.k,
            "d": args.d,
            "budget_words": args.budget_words,
            "workers": args.workers,
        },
        "generator_alphabet": list(ALL_LETTERS),
        "result": result,
        "passed": passed,
    }


def cmd_census(args) -> dict:
    rep = census.count_points(args.p, args.k, args.D, workers=args.workers)
    result = {"p": args.p, "k": args.k, "D": args.D.residue, **rep}
    passed = rep["formula_holds"] is not False
    return _report(args, "census", result, passed)


def cmd_orbits(args) -> dict:
    part = census.orbits(args.p, args.k, args.D, gens=args.gens)
    try:
        _, divisibility = census.orbit_divisibility(args.p, args.k, args.D, part)
    except ValueError:  # outside the theorem's hypotheses
        divisibility = None
    result = {
        "p": args.p,
        "k": args.k,
        "D": args.D.residue,
        "count": part.total,
        "orbit_sizes": sorted(part.orbit_sizes),
        "transitive": part.transitive,
        "divisibility": divisibility,
    }
    if args.csv:
        reps = part.representatives  # a proved orbit lifts here, before the file opens
        with open(args.csv, "w") as fh:
            fh.write("orbit,size,x,y,z\n")
            for i, (size, rep) in enumerate(zip(part.orbit_sizes, reps)):
                fh.write(f"{i},{size},{rep[0]},{rep[1]},{rep[2]}\n")
    return _report(args, "orbits", result, divisibility is not False)


def _identity_bases(p: int):
    """Three generic bases x0, and three parabolic ones (x0 = +-2 mod p)."""
    generic = [r for r in range(p) if r not in (2, p - 2)]
    gen_bases = [generic[i % len(generic)] + p * (i // len(generic)) for i in range(3)]
    return gen_bases, [2, p - 2, p + 2]


def cmd_identities(args) -> dict:
    p, k = args.p, args.k
    suites = {"power_sum": chebyshev.verify_power_sum_identity(p, k)}
    rng = random.Random(711 * p)
    us = list(range(p)) + [rng.randrange(p * p) for _ in range(20)]
    gen_bases, parab_bases = _identity_bases(p)
    estimates = []
    for x0 in gen_bases + parab_bases:
        estimates.append(
            chebyshev.verify_companion_estimates(PadicInt(p, k, x0), us)
        )
    suites["companion_estimates"] = {
        "bases": [e["x0"] for e in estimates],
        "passed": all(e["passed"] for e in estimates),
    }
    recur_ok = True
    for n in range(-30, 31):
        tn = chebyshev.chebyshev_T(n, p, k)
        un = chebyshev.chebyshev_U(n, p, k)
        if tn != chebyshev.chebyshev_T(-n, p, k):
            recur_ok = False
        if un * (-1) != chebyshev.chebyshev_U(-n - 2, p, k):
            recur_ok = False
    suites["symmetries"] = {"passed": recur_ok}
    passed = all(s["passed"] for s in suites.values())
    return _report(args, "identities", suites, passed)


def _demo_flow_map(p: int) -> flow.PointMap:
    def ev(w):
        u, v = w
        one = PadicInt(p, u.precision, 1)
        return (u + (one + u * v).mul_p_power(1), v + (u * u).mul_p_power(1))

    return flow.PointMap(p, ev, "identity")


def cmd_flow_check(args) -> dict:
    p = args.p
    f = _demo_flow_map(p)
    K = 12
    w = (PadicInt(p, K, 3), PadicInt(p, K, 5))
    iteration_ok = True
    for n in range(21):
        flowed = flow.mahler_flow(f, n, w, 3)
        it = w
        for _ in range(n):
            it = f(it)
        if not (flowed[0].congruent_to(it[0], 3) and flowed[1].congruent_to(it[1], 3)):
            iteration_ok = False
    rng = random.Random(599 * p)
    samples = [(rng.randrange(p**2), w) for _ in range(20)]
    additivity = [
        (rng.randrange(p**2), rng.randrange(p**2), w, 3) for _ in range(5)
    ]
    rep = flow.verify_flow_mod_p2(f, samples, additivity_samples=additivity)
    a = flow.mahler_flow(f, 917, w, 3)
    b = flow.mahler_flow(f, 917, w, 3, truncation_order=10)
    truncation_ok = a == b
    result = {
        "iteration_exact": iteration_ok,
        "mod_p2_closed_form": rep["passed"],
        "truncation_sound": truncation_ok,
    }
    return _report(args, "flow-check", result, all(result.values()))


def cmd_expansions(args) -> dict:
    p, k = args.p, args.k
    route = certify.certification_route(p, k, args.D)
    _, _, chart = certify.base_point_chart(p, k, args.D, route)
    suites = polydisk.verify_expansions(chart)
    passed = all(s["passed"] for s in suites.values())
    return _report(args, "expansions", suites, passed)


def cmd_certify(args) -> dict:
    cert = certify.certify_minimal_polydisk(
        args.p, args.k, args.D, budget=args.budget_words
    )
    return _report(args, "certify", cert, cert["overall"])


def cmd_xd_check(args) -> dict:
    rep = certify.check_XD(args.p, args.k, args.D, budget=args.budget_words)
    return _report(args, "xd-check", rep, True)


def cmd_catalog(args) -> dict:
    rep = census.finite_orbit_catalog(args.p, args.k, args.case)
    passed = rep.get("passed", True) if rep["available"] else True
    return _report(args, "catalog", rep, passed)


# each command and the flags it reads besides --p, --workers and --out
_COMMANDS = {
    "census": (cmd_census, ("--k", "--d")),
    "orbits": (cmd_orbits, ("--k", "--d", "--gens", "--csv")),
    "identities": (cmd_identities, ("--k",)),
    "flow-check": (cmd_flow_check, ()),
    "expansions": (cmd_expansions, ("--k", "--d")),
    "certify": (cmd_certify, ("--k", "--d", "--budget-words")),
    "xd-check": (cmd_xd_check, ("--k", "--d", "--budget-words")),
    "catalog": (cmd_catalog, ("--k", "--case")),
}

_FLAGS = {
    "--k": dict(type=int, default=3, help="precision (or residue level)"),
    "--d": dict(type=str, default="0", help="surface parameter D"),
    "--budget-words": dict(type=int, default=8),
    "--gens": dict(choices=("gamma", "aut"), default="gamma"),
    "--csv": dict(type=str, default=None),
    "--case": dict(choices=census._CATALOG_CASES, default="D2"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every command's subparser or only ``command``'s.

    A parser with one subparser parses that command's arguments as the
    full one does, and its usage line names every command as well, so its
    help and its errors read the same; it takes a fifth of the time to build.
    """
    parser = argparse.ArgumentParser(
        prog="markoff-padic",
        description="exact p-adic experiments on Markoff surface automorphisms",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name in _COMMANDS if command is None else [command]:
        sp = sub.add_parser(name)
        # every report's config echoes these, read or not
        sp.set_defaults(k=3, d="0", budget_words=8)
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        for flag in _COMMANDS[name][1]:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument(
            "--workers", type=int, default=1,
            help="no effect; kept so reports stay byte-stable",
        )
        sp.add_argument("--out", type=str, default=None, help="report path")
    return parser


def _check_writable(path: str) -> None:
    """Raise OSError unless path opens for writing; an existing file is left as it was."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the invoked command's subparser, unless argv names none (--help, a typo)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.k < 1 or args.budget_words < 1 or args.workers < 1:
        parser.exit(2, "k, budget-words and workers must be positive\n")
    try:
        for path in (args.out, getattr(args, "csv", None)):
            if path:
                _check_writable(path)
        command, flags = _COMMANDS[args.command]
        if "--d" in flags:  # parsed once, at the precision the report echoes
            args.D = parse_parameter(args.d, args.p, args.k)
        report = command(args)
        text = json.dumps(report, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
