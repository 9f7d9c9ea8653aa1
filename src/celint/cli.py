"""File-driven command line: load a model, run one computation, render it.

Exit codes: 0 success, 1 computation error, 2 parse or validation
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

from . import celestial
from .errors import CelintError, SchemaError
from .exactnum import RationalFunction
from .model import StratumSelection
from .modelfile import LoadedModel, load_model, load_selection


def _load_file(path: str) -> LoadedModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to read
        raise SchemaError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise SchemaError(f"{path} nests its JSON too deeply to read")
    return load_model(data)


def _eval_arg(text: str) -> Fraction:
    if not text.startswith("m="):
        raise argparse.ArgumentTypeError("expected m=VALUE")
    try:
        return Fraction(text[2:])
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value {text[2:]!r}")


def _selection_object(text: str) -> dict:
    """--selection text in the object form of a model file's selection."""
    if text in ("whole", "empty"):
        return {text: True}
    if text.startswith("closed:"):
        rest = text[len("closed:"):]
        return {"closed": [part.strip() for part in rest.split(",") if part.strip()]}
    if text.startswith("strata:"):
        rest = text[len("strata:"):]
        strata = []
        if rest:
            for group in rest.split(";"):
                group = group.strip()
                if group == "()":
                    strata.append([])
                elif group:
                    strata.append([
                        part.strip() for part in group.split(",") if part.strip()
                    ])
                else:
                    raise SchemaError(
                        "empty stratum group; use () for the empty index set"
                    )
        return {"strata": strata}
    raise SchemaError(
        f"unknown selection {text!r}; use whole, empty, closed:A,B or strata:A,B;()"
    )


def _pick_selection(model: LoadedModel, args) -> StratumSelection:
    override = getattr(args, "selection", None)
    if override:
        names = tuple(c.name for c in model.components)
        return load_selection(_selection_object(override), names, "--selection")
    return model.selection


def _pick_chain(model: LoadedModel, args):
    name = getattr(args, "manifest", None)
    if not name:
        return None
    if name not in model.chains:
        raise SchemaError(
            f"unknown chain {name!r}; this model defines {sorted(model.chains)}"
        )
    return model.chains[name]


def _class_json(cls) -> dict:
    return {
        "basis": list(cls.ring.all_names),
        "coefficients": {
            name: cls.coeffs[name].render()
            for name in cls.ring.all_names if name in cls.coeffs
        },
        "rendered": cls.render(),
        "degree": cls.degree().render(),
    }


def _emit_class(cls, args) -> int:
    if getattr(args, "eval_at", None) is not None:
        cls = cls.evaluate(args.eval_at)
    if args.format == "json":
        print(json.dumps(_class_json(cls), indent=2))
    else:
        print(cls.render())
    return 0


def _text(value: RationalFunction, args) -> str:
    """A value rendered, or evaluated at the --eval point when one is given."""
    if getattr(args, "eval_at", None) is None:
        return value.render()
    return str(value.evaluate(args.eval_at))


def _emit_value(value: RationalFunction, args, extra=None) -> int:
    """Print a value and the extra fields; text output with --eval omits them."""
    if args.format == "json":
        print(json.dumps({"value": _text(value, args), **(extra or {})}, indent=2))
        return 0
    print(_text(value, args))
    if extra and getattr(args, "eval_at", None) is None:
        for key, item in extra.items():
            print(f"{key}: {item}")
    return 0


def _require(part, what: str):
    """A part of the model, which must be present."""
    if part is None:
        raise SchemaError(f"this model has no {what}")
    return part


def _cmd_ring(args) -> int:
    model = _load_file(args.file)
    ring = _require(model.ring, "ring")
    if args.format == "json":
        payload = {
            "dim": ring.dim,
            "basis": [list(level) for level in ring.basis],
            "point": ring.point,
            "chern": ring.tangent_chern.render() if ring.tangent_chern else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(ring.describe())
    return 0


def _cmd_class(args) -> int:
    """integrate, class-level zeta, csm and stringy: the model's class
    data, selection and chain are read before the verb's `compute` runs,
    and its class is pushed through the chain."""
    model = _load_file(args.file)
    config = _require(model.config, "ring/class data")
    selection = _pick_selection(model, args)
    chain = _pick_chain(model, args)
    cls = celestial.manifest(args.compute(config, selection), chain)
    return _emit_class(cls, args)


def _cmd_degree(args) -> int:
    model = _load_file(args.file)
    data = _require(model.degree_data, "chi_closed table")
    value = celestial.integrate_degree(data, _pick_selection(model, args))
    return _emit_value(value, args)


def _cmd_zeta(args) -> int:
    if not args.degree:
        return _cmd_class(args)
    model = _load_file(args.file)
    data = _require(model.degree_data, "chi_closed table")
    value, poles = celestial.zeta_degree(data, _pick_selection(model, args))
    return _emit_value(value, args, extra={"poles": poles.render()})


def _cmd_ix(args) -> int:
    model = _load_file(args.file)
    fibered = _require(model.fibered, "fibered data")
    fn = celestial.ix_function(fibered, _pick_selection(model, args))
    entries = [(label, _text(v, args)) for label, v in fn.entries]
    if args.format == "json":
        print(json.dumps({"values": dict(entries)}, indent=2))
    else:
        for label, text in entries:
            print(f"{label}: {text}")
    return 0


def _cmd_verify(args) -> int:
    # the suites and their ring pool load only for this verb
    from . import verify

    if args.suite == "all":
        names = sorted(verify.SUITES)
    else:
        if args.suite not in verify.SUITES:
            raise SchemaError(
                f"unknown suite {args.suite!r}; choose from "
                f"{sorted(verify.SUITES)} or all"
            )
        names = [args.suite]
    if args.instances < 1:
        raise SchemaError(f"--instances must be at least 1, got {args.instances}")
    seed = args.seed if args.seed is not None else verify.DEFAULT_SEED
    summary = {}
    failed_total = 0
    for name in names:
        reports = verify.run_suite(name, args.instances, seed)
        failures = [r for r in reports if not r.passed]
        failed_total += len(failures)
        summary[name] = {
            "checks": len(reports),
            "passed": len(reports) - len(failures),
            "failures": [
                {"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "context": r.context}
                for r in failures
            ],
        }
        if args.format != "json":
            for r in reports:
                print(r.line())
                if not r.passed:
                    print(f"  lhs: {r.lhs}")
                    print(f"  rhs: {r.rhs}")
            print(
                f"suite {name}: {len(reports) - len(failures)}/{len(reports)} "
                f"passed (seed {seed})"
            )
    if args.format == "json":
        print(json.dumps({"seed": seed, "suites": summary}, indent=2))
    return 3 if failed_total else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celint",
        description="Exact intersection-theoretic integrals on resolution data.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, selection=True, eval_opt=True, chain=True):
        p.add_argument("file", help="model file (JSON)")
        if selection:
            p.add_argument(
                "--selection",
                help="override: whole | empty | closed:A,B | strata:A,B;()",
            )
        if eval_opt:
            p.add_argument(
                "--eval", dest="eval_at", type=_eval_arg, metavar="m=VALUE",
                help="evaluate every coefficient at a rational m",
            )
        if chain:
            p.add_argument(
                "--manifest", metavar="CHAIN",
                help="push the result through a named chain from the model",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
        )

    p_ring = sub.add_parser("ring", help="describe the model's ring")
    add_common(p_ring, selection=False, eval_opt=False, chain=False)
    p_ring.set_defaults(func=_cmd_ring)

    p_int = sub.add_parser("integrate", help="class-level integral")
    add_common(p_int)
    p_int.set_defaults(func=_cmd_class, compute=celestial.integrate_class)

    p_deg = sub.add_parser("degree", help="degree-level integral from chi tables")
    add_common(p_deg, chain=False)
    p_deg.set_defaults(func=_cmd_degree)

    p_zeta = sub.add_parser("zeta", help="zeta value (class, or degree with poles)")
    add_common(p_zeta)
    p_zeta.add_argument(
        "--degree", action="store_true",
        help="degree-level zeta with a pole report",
    )
    p_zeta.set_defaults(func=_cmd_zeta, compute=celestial.zeta_class)

    p_csm = sub.add_parser("csm", help="CSM class of the selected set")
    add_common(p_csm, eval_opt=False)
    p_csm.set_defaults(func=_cmd_class, compute=celestial.csm_set)

    p_ix = sub.add_parser("ix", help="stratumwise constructible function")
    add_common(p_ix, chain=False)
    p_ix.set_defaults(func=_cmd_ix)

    p_str = sub.add_parser("stringy", help="stringy class from discrepancy data")
    add_common(p_str, selection=False)
    p_str.set_defaults(
        func=_cmd_class, compute=lambda config, _: celestial.stringy_class(config))

    p_ver = sub.add_parser("verify", help="run a randomized identity suite")
    p_ver.add_argument("suite", help="suite name or all")
    p_ver.add_argument("--instances", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        for item in caught:
            print(f"warning: {item.message}", file=sys.stderr)
        return code
    except CelintError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
