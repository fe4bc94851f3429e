"""Command-line surface.

Subcommands: clark, atto, shift, unitary, membership, rankone, dim,
example-4-1, selftest.  All results are JSON on stdout (complex scalars as
[re, im] pairs); diagnostics go to stderr.  Exit codes: 0 success or member,
2 usage/config error, 3 negative verdict, 4 indeterminate, internal
inconsistency or a typed numerical failure (QuadratureError,
RootCollisionError, ToleranceBreakdown), each with one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import serialize
from .blaschke import BlaschkeProduct, RootCollisionError, ToleranceBreakdown, monomial
from .config import DEFAULT, Tolerances
from .instances import (member_matrix, perturbed_nonmember, random_blaschke,
                        random_unimodular, random_vector, shared_clark_instance)
from .membership import (IndeterminateError, MethodDisagreement, clark_pairing,
                         match_clark_points, recover_chi_psi_clark, run_all,
                         test_clark_recurrence, test_conjugate_residual,
                         test_rank_two_residual, test_shift_invariance)
from .modelspace import QuadratureError, build_basis, clark_points, inner_product, kernel
from .operators import (OperatorMatrix, SymbolSpec, atto_matrix, clark_unitary,
                        compressed_shift, modified_shift, standard_rank_one,
                        symbol_span_dimension)
from .rankone import decompose_rank_one, example_4_1, example_4_1_candidates

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_INDETERMINATE = 4


def parse_complex(text: str) -> complex:
    text = text.strip()
    if text.startswith("["):
        return serialize.uncpx(json.loads(text))
    return complex(text.replace("i", "j"))


def parse_blaschke(text: str) -> BlaschkeProduct:
    text = text.strip()
    if text.startswith("zn:"):
        return monomial(int(text[3:]))
    if text.startswith("z") and text[1:].isdigit():
        return monomial(int(text[1:]))
    if text.startswith("{"):
        return BlaschkeProduct.from_json(json.loads(text))
    with open(text, "r", encoding="utf-8") as fh:
        return BlaschkeProduct.from_json(json.load(fh))


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.unobject(json.load(fh), "config")


def config_tolerances(cfg: dict) -> Tolerances:
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    given = serialize.unobject(cfg.get("tolerances", {}), "tolerances")
    bad = set(given) - fields
    if bad:
        raise ValueError(f"unknown tolerance keys: {sorted(bad)}")
    for key, val in given.items():
        if type(val) not in (int, float, str) or not 0 < float(val) < np.inf:  # not bool
            raise ValueError(f"tolerance {key} must be positive and finite")
    tol = dataclasses.replace(DEFAULT, **{k: float(v) for k, v in given.items()})
    if tol.decision >= tol.reject_band:
        raise ValueError("tolerance decision must lie below reject_band")
    return tol


def _resolve(cfg: dict, key: str, flag_value, parser, required=True):
    raw = cfg.get(key) if flag_value is None else flag_value
    if raw is None:
        if required:
            raise ValueError(f"missing required parameter {key!r} (flag or config)")
        return None
    if isinstance(raw, str):
        return parser(raw)
    if key in ("alpha", "beta"):
        if isinstance(raw, dict):
            return BlaschkeProduct.from_json(raw)
        raise ValueError(f"{key} must be a string or a JSON object")
    if isinstance(raw, (int, float)):     # a real number; uncpx rejects bools
        raw = [raw, 0.0]
    return serialize.uncpx(raw)


def _emit(obj) -> None:
    sys.stdout.write(serialize.dumps(obj) + "\n")


def cmd_clark(args, cfg: dict, tol: Tolerances) -> int:
    alpha = _resolve(cfg, "alpha", args.alpha, parse_blaschke)
    lam1 = _resolve(cfg, "lambda1", args.lam, parse_complex)
    out = {"alpha": clark_points(alpha, lam1, tol).to_json()}
    beta = _resolve(cfg, "beta", args.beta, parse_blaschke, required=False)
    if beta is not None:
        lam2 = _resolve(cfg, "lambda2", args.lam2, parse_complex)
        out["beta"] = clark_points(beta, lam2, tol).to_json()
    _emit(out)
    return EXIT_OK


def cmd_atto(args, cfg: dict, tol: Tolerances) -> int:
    alpha = _resolve(cfg, "alpha", args.alpha, parse_blaschke)
    beta = _resolve(cfg, "beta", args.beta, parse_blaschke)
    with open(args.symbol, "r", encoding="utf-8") as fh:
        symbol = SymbolSpec.from_json(json.load(fh))
    lam1 = _resolve(cfg, "lambda1", args.lam, parse_complex,
                    required=args.in_basis in ("clark", "modified-clark"))
    lam2 = _resolve(cfg, "lambda2", args.lam2, parse_complex,
                    required=args.out_basis in ("clark", "modified-clark"))
    mat = atto_matrix(alpha, beta, symbol,
                      build_basis(alpha, args.in_basis, lam1, tol=tol),
                      build_basis(beta, args.out_basis, lam2, tol=tol),
                      method=args.method, tol=tol)
    _emit(mat.to_json())
    return EXIT_OK


def cmd_shift(args, cfg: dict, tol: Tolerances) -> int:
    alpha = _resolve(cfg, "alpha", args.alpha, parse_blaschke)
    lam1 = _resolve(cfg, "lambda1", args.lam, parse_complex,
                    required=args.basis in ("clark", "modified-clark"))
    basis = build_basis(alpha, args.basis, lam1, tol=tol)
    if args.c is not None:
        mat = modified_shift(alpha, parse_complex(args.c), basis)
    else:
        mat = compressed_shift(alpha, basis)
    _emit(mat.to_json())
    return EXIT_OK


def cmd_unitary(args, cfg: dict, tol: Tolerances) -> int:
    alpha = _resolve(cfg, "alpha", args.alpha, parse_blaschke)
    lam1 = _resolve(cfg, "lambda1", args.lam, parse_complex)
    basis = build_basis(alpha, args.basis, lam1, tol=tol)
    _emit(clark_unitary(alpha, lam1, basis).to_json())
    return EXIT_OK


def cmd_membership(args, cfg: dict, tol: Tolerances) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        mat = OperatorMatrix.from_json(json.load(fh))
    lam1 = _resolve(cfg, "lambda1", args.lam, parse_complex, required=False)
    lam2 = _resolve(cfg, "lambda2", args.lam2, parse_complex, required=False)
    pairing = None
    if mat.in_basis.kind == "clark" and mat.out_basis.kind == "clark":
        pairing = match_clark_points(mat.in_basis.clark, mat.out_basis.clark, tol)
    elif lam1 is not None and lam2 is not None:
        pairing = clark_pairing(mat.alpha, mat.beta, lam1, lam2, tol)

    a = parse_complex(args.a) if args.a else 0j
    b = parse_complex(args.b) if args.b else 0j
    if args.method == "all":
        result = run_all(mat, pairing, residual_pairs=((a, b),), tol=tol)
        methods = {k: v.to_json() for k, v in result["methods"].items()}
        worst = max(v["max_residual"] for v in methods.values())
        _emit({"member": result["member"], "method": "all",
               "max_residual": worst, "methods": methods})
        return EXIT_OK if result["member"] else EXIT_NEGATIVE
    if args.method == "clark":
        if pairing is None:
            raise ValueError("clark method needs Clark bases or lambda1/lambda2")
        verdict = test_clark_recurrence(pairing.clark_matrix(mat), pairing, tol)
    elif args.method == "residual":
        verdict = test_rank_two_residual(mat, a, b, tol)
    elif args.method == "conjugate":
        verdict = test_conjugate_residual(mat, a, b, tol)
    else:
        verdict = test_shift_invariance(mat, tol)
    _emit(verdict.to_json())
    return EXIT_OK if verdict.is_member else EXIT_NEGATIVE


def cmd_rankone(args, cfg: dict, tol: Tolerances) -> int:
    if args.example_4_1:
        a = parse_complex(args.a) if args.a else 0.5 + 0j
        alpha, beta, mat = example_4_1(a)
        dec = decompose_rank_one(mat, tol=tol)
        cands = example_4_1_candidates(a)
        _emit({"decomposition": dec.to_json(),
               "candidates": {k: serialize.cpx_seq(v) for k, v in cands.items()},
               "matrix": mat.to_json()})
        return EXIT_OK
    with open(args.matrix, "r", encoding="utf-8") as fh:
        mat = OperatorMatrix.from_json(json.load(fh))
    _emit(decompose_rank_one(mat, tol=tol).to_json())
    return EXIT_OK


def cmd_dim(args, cfg: dict, tol: Tolerances) -> int:
    alpha = _resolve(cfg, "alpha", args.alpha, parse_blaschke)
    beta = _resolve(cfg, "beta", args.beta, parse_blaschke)
    rank, svals = symbol_span_dimension(alpha, beta, tol)
    out = {"dim": rank}
    if min(alpha.degree, beta.degree) == 1:
        out["note"] = "T = L: every linear operator carries a symbol"
    _emit(out)
    return EXIT_OK


def cmd_example_4_1(args, cfg: dict, tol: Tolerances) -> int:
    a = parse_complex(args.a) if args.a else 0.5 + 0j
    alpha, beta, mat = example_4_1(a)
    pairing = clark_pairing(alpha, beta, 1.0, 1.0, tol)
    verdicts = run_all(mat, pairing, tol=tol)
    dec = decompose_rank_one(mat, tol=tol)
    _emit({"alpha": alpha.to_json(), "beta": beta.to_json(),
           "matrix": mat.to_json(),
           "member": verdicts["member"],
           "methods": {k: v.to_json() for k, v in verdicts["methods"].items()},
           "decomposition": dec.to_json(),
           "candidates": {k: serialize.cpx_seq(v)
                          for k, v in example_4_1_candidates(a).items()}})
    return EXIT_OK


def _selftest_report(seed: int, trials: int, tol: Tolerances) -> dict:
    rng = np.random.default_rng(seed)
    report = {"seed": seed, "trials": trials}

    worst_circle = 0.0
    worst_reproducing = 0.0
    for _ in range(trials):
        b = random_blaschke(rng, int(rng.integers(1, 5)))
        z = random_unimodular(rng)
        worst_circle = max(worst_circle, abs(abs(b(z)) - 1.0))
        basis = build_basis(b, "tm")
        f = random_vector(rng, basis)
        w = 0.7 * np.sqrt(rng.random()) * random_unimodular(rng)
        kw = kernel(b, w)
        worst_reproducing = max(
            worst_reproducing,
            abs(inner_product(f, kw) - f(w)) / (1.0 + f.norm()))
    report["boundary_modulus_defect"] = worst_circle
    report["reproducing_defect"] = worst_reproducing

    checks = max(2, trials // 50)
    member_worst = 0.0
    nonmember_best = np.inf
    agree = True
    for _ in range(checks):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, int(rng.integers(0, 2)))
        pairing = clark_pairing(alpha, beta, lam1, lam2, tol)
        mem = member_matrix(rng, alpha, beta, lam1, lam2, tol)
        res = run_all(mem, pairing, tol=tol)
        agree = agree and res["member"]
        member_worst = max(member_worst,
                           max(v.max_residual for v in res["methods"].values()))
        non = perturbed_nonmember(rng, mem, pairing)
        res2 = run_all(non, pairing, tol=tol)
        agree = agree and not res2["member"]
        nonmember_best = min(nonmember_best,
                             min(v.max_residual for v in res2["methods"].values()))
        chi, psi = recover_chi_psi_clark(mem, pairing, psi1=0j, tol=tol)
        report["witness_norms"] = [chi.norm(), psi.norm()]
    report["membership_agreement"] = agree
    report["member_worst_residual"] = member_worst
    report["nonmember_best_residual"] = float(nonmember_best)

    alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 0)
    rank, _ = symbol_span_dimension(alpha, beta, tol)
    report["dimension_3_2"] = rank

    w = 0.3 + 0.1j
    sro = standard_rank_one(alpha, beta, w, "conjk-kernel")
    dec = decompose_rank_one(sro, tol=tol)
    report["rankone_roundtrip"] = {"variant": dec.variant,
                                   "w_error": abs(dec.w - w)}
    report["example_4_1"] = {
        "decomposition": decompose_rank_one(example_4_1(0.5)[2], tol=tol).to_json(),
        "candidates": {k: serialize.cpx_seq(v)
                       for k, v in example_4_1_candidates(0.5).items()}}
    return report


def cmd_selftest(args, cfg: dict, tol: Tolerances) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed", 42)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    report = _selftest_report(seed, args.trials, tol)
    _emit(report)
    ok = (report["membership_agreement"]
          and report["boundary_modulus_defect"] <= 1e-12
          and report["reproducing_defect"] <= 1e-9
          and report["dimension_3_2"] == 4)
    return EXIT_OK if ok else EXIT_INDETERMINATE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="attokit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")

    p = sub.add_parser("clark", help="Clark points and weights")
    common(p)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--lambda2", dest="lam2")
    p.set_defaults(fn=cmd_clark)

    p = sub.add_parser("atto", help="matrix of a truncated multiplication operator")
    common(p)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--symbol", required=True, help="SymbolSpec JSON file")
    p.add_argument("--in-basis", default="tm", dest="in_basis")
    p.add_argument("--out-basis", default="tm", dest="out_basis")
    p.add_argument("--method", default="quadrature", choices=["quadrature", "closed"])
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--lambda2", dest="lam2")
    p.set_defaults(fn=cmd_atto)

    p = sub.add_parser("shift", help="compressed (or modified) shift matrix")
    common(p)
    p.add_argument("--alpha")
    p.add_argument("--basis", default="tm")
    p.add_argument("--c", default=None, help="modified-shift coefficient")
    p.add_argument("--lambda", dest="lam")
    p.set_defaults(fn=cmd_shift)

    p = sub.add_parser("unitary", help="rank-one unitary perturbation of the shift")
    common(p)
    p.add_argument("--alpha")
    p.add_argument("--basis", default="tm")
    p.add_argument("--lambda", dest="lam")
    p.set_defaults(fn=cmd_unitary)

    p = sub.add_parser("membership", help="decide membership of a matrix")
    common(p)
    p.add_argument("--matrix", required=True, help="OperatorMatrix JSON file")
    p.add_argument("--method", default="all",
                   choices=["all", "clark", "residual", "conjugate", "shift"])
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--lambda2", dest="lam2")
    p.set_defaults(fn=cmd_membership)

    p = sub.add_parser("rankone", help="decompose a rank-one member")
    common(p)
    p.add_argument("--matrix")
    p.add_argument("--example-4-1", action="store_true", dest="example_4_1")
    p.add_argument("--a", default=None)
    p.set_defaults(fn=cmd_rankone)

    p = sub.add_parser("dim", help="dimension of the operator class")
    common(p)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("example-4-1", help="the non-standard rank-one example")
    common(p)
    p.add_argument("--a", default=None)
    p.set_defaults(fn=cmd_example_4_1)

    p = sub.add_parser("selftest", help="seeded deterministic self-check")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        return args.fn(args, cfg, config_tolerances(cfg))
    except (IndeterminateError, MethodDisagreement, QuadratureError, RootCollisionError,
            ToleranceBreakdown) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
