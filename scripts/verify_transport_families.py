#!/usr/bin/env python3
"""Run the closed-form solution families through every checker.

Walks the head-average family for equation I over a grid of (n, beta), the
unit-coefficient-sum family for equation II at even n, and the arithmetic
mean against the full overdetermined system. Everything here should pass;
the script exists to demonstrate that the symbolic, sampled, and finite
difference routes agree on the families the checkers were built around.
Each family's linear form is checked twice, directly (decided exactly on
its coefficients) and as an expression (decided on the residual's normal
form); a disagreement between the two is a FAIL.

Usage: python3 scripts/verify_transport_families.py [--seed 0] [--samples 200]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from ouroboros.core import LinearForm, SampleDomain, check_linear_exact
from ouroboros.families import arithmetic_mean, head_average_solution, unit_sum_solution_family
from ouroboros.pde import (
    PdeKind,
    PdeSpec,
    check_alternating_balance,
    check_residual,
    check_system,
    verify_mean_system,
)


def both_routes(form: LinearForm, spec: PdeSpec, dom: SampleDomain):
    """The exact report of ``form``, the normal-form report of its expression, and whether they agree."""
    exact = check_residual(form, spec, dom)
    normal = check_residual(form.to_expr(), spec, dom)
    return exact, normal, exact.symbolic_zero == normal.symbolic_zero


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    failures = 0

    print("head-average family vs equation I")
    for n in (2, 3, 4, 6):
        for beta in range(1, n):
            coeffs = tuple(rng.uniform(-2, 2, size=n - 1))
            sol = head_average_solution(coeffs, beta)
            dom = SampleDomain(n=n, radius=2.0, seed=args.seed, count=args.samples)
            exact, rep, agree = both_routes(sol.to_linear_form(), PdeSpec(PdeKind.EQ_I, n=n, beta=beta), dom)
            ok = agree and exact.symbolic_zero and rep.max_abs_residual_fd <= 1e-6
            failures += not ok
            print(f"  n={n} beta={beta}: symbolic_zero={exact.symbolic_zero} routes_agree={agree} "
                  f"fd_max={rep.max_abs_residual_fd:.2e} {'ok' if ok else 'FAIL'}")

    print("unit-sum family vs equation I (beta = n) and self-application")
    for n in (2, 3, 4, 5):
        body = rng.uniform(-2, 2, size=n - 2)
        last = 1.0 / n
        first = 1.0 - last - float(np.sum(body))
        form = unit_sum_solution_family((first, *body, last))
        dom = SampleDomain(n=n, radius=2.0, seed=args.seed, count=args.samples)
        exact, _, agree = both_routes(form, PdeSpec(PdeKind.EQ_I, n=n, beta=n), dom)
        ouro = check_linear_exact(form)
        ok = agree and exact.symbolic_zero and ouro.holds
        failures += not ok
        print(f"  n={n}: symbolic_zero={exact.symbolic_zero} routes_agree={agree} "
              f"self_application={ouro.verdict.value} {'ok' if ok else 'FAIL'}")

    print("alternating balance vs equation II at even n")
    for n in (2, 4, 6):
        coeffs = list(rng.uniform(-2, 2, size=n))
        # rebalance the last even slot so both index-parity sums agree
        coeffs[-1] += sum(coeffs[0::2]) - sum(coeffs[1::2])
        bal = check_alternating_balance(coeffs)
        dom = SampleDomain(n=n, radius=2.0, seed=args.seed, count=args.samples)
        exact, _, agree = both_routes(LinearForm(tuple(coeffs)), PdeSpec(PdeKind.EQ_II, n=n), dom)
        ok = agree and bal.holds and exact.symbolic_zero
        failures += not ok
        print(f"  n={n}: balance={bal.holds} symbolic_zero={exact.symbolic_zero} routes_agree={agree} "
              f"{'ok' if ok else 'FAIL'}")

    print("arithmetic mean vs the full system")
    for n in (2, 4, 6, 8):
        sys_rep = verify_mean_system(n)
        dom = SampleDomain(n=n, radius=2.0, seed=args.seed, count=args.samples)
        normal = check_system(arithmetic_mean(n).to_expr(), n, dom)
        agree = all(a.symbolic_zero == b.symbolic_zero
                    for a, b in ((sys_rep.eq1, normal.eq1), (sys_rep.eq2, normal.eq2)))
        ok = agree and sys_rep.all_hold
        failures += not ok
        print(f"  n={n}: all_hold={sys_rep.all_hold} routes_agree={agree} "
              f"origin={sys_rep.origin_value!r} "
              f"self_application={sys_rep.ouroboros.verdict.value} {'ok' if ok else 'FAIL'}")

    print(f"\n{'all families verified' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
