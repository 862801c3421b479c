"""Command-line interface.

Exit codes: 0 established/valid/provable, 1 refuted/unprovable/witness
found, 2 inconclusive, 3 usage or resource error.  Output is deterministic
for a fixed command line (JSON is emitted with sorted keys).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .alpha import FULL_VALIDATION_N, alpha_formulas, u_valuation, universal_subst
from .errors import MedlogError, ParseError, SearchBudgetError, SelfCheckError
from .formula import Formula, apply_subst, parse, render
from .ipc import DEFAULT_BUDGET, classical_countermodel, ipc_provable
from .kpform import kp_normalize, kp_rank, verify_normal_form
from .medvedev import (
    dp_countermodel,
    frame,
    gens,
    refute,
    valid_on,
    valuation_from_obj,
    world,
)
from .structural import (
    PMorphism,
    admissibility_witness,
    check_pmorphism,
    levin_decomposition,
)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise MedlogError(f"JSON in {path} nests too deeply") from None


def _is_world_list(obj) -> bool:
    """A list of generator lists, the JSON form of worlds: ``[[1], [1, 2]]``."""
    return isinstance(obj, list) and all(
        isinstance(gs, list) and all(type(g) is int for g in gs) for gs in obj
    )


def _formula_arg(args) -> Formula:
    """Single quoted argument or --file, exactly one of the two."""
    if args.formula is not None and args.file is not None:
        raise MedlogError("give the formula either inline or via --file, not both")
    if args.formula is not None:
        return parse(args.formula)
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse(fh.read().strip())
    raise MedlogError("a formula argument or --file is required")


def _cmd_parse(args) -> int:
    f = _formula_arg(args)
    if args.json:
        _emit_json({"formula": render(f)})
    else:
        print(render(f))
    return 0


def _cmd_rank(args) -> int:
    f = _formula_arg(args)
    r = kp_rank(f)
    if args.json:
        _emit_json({"formula": render(f), "rank": r.value if r.finite else "inf"})
    else:
        print(r)
    return 0


def _cmd_normalize(args) -> int:
    f = _formula_arg(args)
    nd = kp_normalize(f)
    report = verify_normal_form(f, nd, bound=args.verify_bound, seed=args.seed)
    if args.json:
        _emit_json({
            "formula": render(f),
            "bodies": [render(b) for b in nd.bodies],
            "rank_matches": report.rank_matches,
            "needs_weak_kp": report.needs_weak_kp,
            "ipc_equivalent": report.ipc_equivalent,
            "constants_as_negations": report.constants_as_negations,
            "frame_checks": [c.to_obj() for c in report.frame_checks],
        })
    else:
        for b in nd.bodies:
            print(f"~({render(b)})")
        print(f"disjuncts: {len(nd)} (rank {'matches' if report.rank_matches else 'MISMATCH'})")
        for c in report.frame_checks:
            state = "valid" if c.valid else "FAILS"
            print(f"equivalence on M_{c.n}: {state} ({c.mode}, {c.checked} valuations)")
        if report.needs_weak_kp:
            print("equivalence relies on the weak Kreisel-Putnam axiom")
        elif report.ipc_equivalent is not None:
            print(f"intuitionistically equivalent: {report.ipc_equivalent}")
        if report.constants_as_negations:
            print("constants ranked as negations (F as ~T, T as ~F)")
    return 0 if report.ok else 1


def _cmd_prove_ipc(args) -> int:
    f = _formula_arg(args)
    try:
        ok = ipc_provable(f, budget=args.budget)
    except SearchBudgetError:
        print("unknown (budget exhausted)")
        return 2
    print("provable" if ok else "unprovable")
    return 0 if ok else 1


def _cmd_prove_cl(args) -> int:
    f = _formula_arg(args)
    cm = classical_countermodel(f)
    if cm is None:
        print("valid")
        return 0
    if args.json:
        _emit_json({"formula": render(f), "countermodel": cm})
    else:
        assignment = ", ".join(f"{k}={str(v).lower()}" for k, v in sorted(cm.items()))
        print(f"countermodel: {assignment}" if cm else "countermodel: (empty)")
    return 1


def _cmd_check(args) -> int:
    f = _formula_arg(args)
    res = valid_on(frame(args.n), f, args.mode, count=args.count, seed=args.seed)
    if res.witness is not None:
        _emit_json(res.witness.to_obj())
        return 1
    if res.exhaustive:
        print(f"valid on M_{args.n} ({res.checked} valuations)")
        return 0
    print(f"no counterexample found on M_{args.n} ({res.checked} sampled valuations)")
    return 2


def _cmd_refute(args) -> int:
    f = _formula_arg(args)
    wit = refute(f, args.max_n, args.strategy, count=args.count, seed=args.seed)
    if wit is not None:
        _emit_json(wit.to_obj())
        return 1
    print(f"no refutation found up to M_{args.max_n}")
    return 2


def _cmd_alpha(args) -> int:
    fam = alpha_formulas(args.n)
    u = u_valuation(args.n)  # construction model-checks the family laws
    membership = "checked" if args.n <= FULL_VALIDATION_N else "skipped"
    if args.json:
        _emit_json({
            "n": fam.n,
            "m": fam.m,
            "formulas": [render(a) for a in fam.formulas],
            "valuation": u.to_obj(),
            "validation": {"separation": "checked", "membership_law": membership},
        })
    else:
        for i, a in enumerate(fam.formulas, start=1):
            print(f"alpha_{i}: {render(a)}")
        for atom, worlds in u.to_obj().items():
            shown = ", ".join("{" + ",".join(map(str, w)) + "}" for w in worlds)
            print(f"u({atom}): {shown}")
        print(f"validation: separation checked, membership law {membership}")
    return 0


def _cmd_subst(args) -> int:
    f = _formula_arg(args)
    obj = _load_json(args.valuation)
    if not (isinstance(obj, dict) and all(map(_is_world_list, obj.values()))):
        raise MedlogError("valuation file must map atoms to lists of generator lists")
    val = valuation_from_obj(frame(args.n), obj)
    sigma = universal_subst(args.n, val)
    image = apply_subst(sigma, f)
    if args.json:
        _emit_json({
            "n": args.n,
            "sigma": {a: render(g) for a, g in sorted(sigma.mapping.items())},
            "image": render(image),
        })
    else:
        for a, g in sorted(sigma.mapping.items()):
            print(f"sigma({a}) = {render(g)}")
        print(f"image: {render(image)}")
    return 0


def _cmd_witness(args) -> int:
    premise = parse(args.premise)
    conclusion = parse(args.conclusion)
    wit = admissibility_witness(
        premise, conclusion, args.max_n,
        validity_bound=args.validity_bound, count=args.count, seed=args.seed,
    )
    if wit is not None:
        _emit_json(wit.to_obj())
        return 1
    print(f"no separating valuation found up to M_{args.max_n}")
    return 2


def _cmd_levin(args) -> int:
    f = _formula_arg(args)
    dec = levin_decomposition(f, args.max_n, count=args.count, seed=args.seed)
    if dec is not None:
        _emit_json(dec.to_obj())
        return 1
    print(f"no refutation found up to M_{args.max_n}")
    return 2


def _cmd_dp(args) -> int:
    left = parse(args.left)
    right = parse(args.right)
    wl = refute(left, args.max_n, count=args.count, seed=args.seed)
    if wl is None:
        print(f"left formula not refuted up to M_{args.max_n}")
        return 2
    wr = refute(right, args.max_n, count=args.count, seed=args.seed)
    if wr is None:
        print(f"right formula not refuted up to M_{args.max_n}")
        return 2
    _emit_json(dp_countermodel(wl, wr).to_obj())
    return 1


def _cmd_pmorphism(args) -> int:
    obj = _load_json(args.check)
    if not (isinstance(obj, dict) and type(obj.get("m")) is int
            and type(obj.get("n")) is int):
        raise MedlogError("map file must be an object with integer m and n")
    m, n = obj["m"], obj["n"]
    if "point_map" in obj:
        point_map = obj["point_map"]
        if not (isinstance(point_map, dict)
                and all(type(v) is int for v in point_map.values())):
            raise MedlogError("point_map must map generators to generators")
        points: dict[int, int] = {}
        for k, v in point_map.items():
            g = int(k)
            if g in points:
                raise MedlogError(f"point_map names generator {g} twice")
            points[g] = v
        pm = PMorphism.from_max_map(m, n, points)
    else:
        pairs = obj.get("map")
        if not (isinstance(pairs, list)
                and all(_is_world_list(p) and len(p) == 2 for p in pairs)):
            raise MedlogError("map must be a list of [source world, image world] pairs")
        fr = frame(m)
        dense = [0] * fr.world_count
        for src, dst in pairs:
            w = world(*src)
            if w > fr.world_count:
                raise MedlogError(f"source world {gens(w)} outside {fr!r}")
            if dense[w - 1]:
                raise MedlogError(f"map names source world {gens(w)} twice")
            dense[w - 1] = world(*dst)
        if 0 in dense:
            missing = gens(dense.index(0) + 1)
            raise MedlogError(f"map misses world {missing}")
        pm = PMorphism(m, n, tuple(dense))
    report = check_pmorphism(pm)
    if report.ok:
        print("pass")
        return 0
    for kind, x, y in report.violations:
        print(f"{kind} violation at {gens(x)} / {gens(y)}")
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, not at import
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="medlog", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_, takes_formula=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if takes_formula:
            p.add_argument("formula", nargs="?")
            p.add_argument("--file", help="read the formula from this file instead")
        return p

    p = add("parse", _cmd_parse, "parse and reprint a formula", takes_formula=True)
    p.add_argument("--json", action="store_true")

    p = add("rank", _cmd_rank, "disjunct count of the normal form, or inf",
            takes_formula=True)
    p.add_argument("--json", action="store_true")

    p = add("normalize", _cmd_normalize, "normal-form bodies plus verification",
            takes_formula=True)
    p.add_argument("--verify-bound", type=int, default=3,
                   help="verify on frames up to this size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = add("prove-ipc", _cmd_prove_ipc, "intuitionistic provability",
            takes_formula=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("prove-cl", _cmd_prove_cl, "classical validity", takes_formula=True)
    p.add_argument("--json", action="store_true")

    p = add("check", _cmd_check, "validity on one frame", takes_formula=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("refute", _cmd_refute, "scan frames for a refutation witness",
            takes_formula=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--strategy", choices=("auto", "exhaustive", "sample"), default="auto")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("alpha", _cmd_alpha, "the n-member family and its universal valuation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("subst", _cmd_subst, "apply the substitution induced by a valuation",
            takes_formula=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--valuation", required=True, metavar="FILE",
                   help="JSON file mapping atoms to lists of generator lists")
    p.add_argument("--json", action="store_true")

    p = add("witness", _cmd_witness, "admissibility witness for a rule")
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--validity-bound", type=int, default=4)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("levin", _cmd_levin, "refute and decompose into negation bodies",
            takes_formula=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("dp", _cmd_dp, "combined countermodel for a disjunction")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("pmorphism", _cmd_pmorphism, "verify a world map between frames")
    p.add_argument("--check", required=True, metavar="FILE",
                   help="JSON file with m, n, and map or point_map")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 3
    except SearchBudgetError as exc:
        print(f"search budget exhausted: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (MedlogError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must never exit 1, which means "refuted"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
