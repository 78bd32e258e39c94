#!/usr/bin/env python3
"""Sweep abelian groups and their automorphisms for Gelfand pairs.

For each isomorphism type A of order up to --max-order and each
automorphism f, the group of maps x -> a + f^i(x) together with <f> forms
a pair whose double-coset algebra is checked for commutativity.  An
automorphism group of more than 500 elements is covered through its
conjugacy-class representatives,
which is enough because conjugate automorphisms give isomorphic pairs.
The table goes to stdout; one progress line per order goes to stderr.
"""

import argparse
import sys
import time

from quandlekit import (
    AbelianGroup,
    GroupTooLarge,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    automorphism_group,
    automorphism_permutations,
    conjugacy_classes,
    is_connected,
    is_gelfand_pair,
    is_multiplicity_free,
)

# sweep every automorphism when |Aut| is at most this, as criterion 6 does
FULL_SWEEP_LIMIT = 500


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=30)
    args = parser.parse_args()

    started = time.perf_counter()
    total = 0
    agreements = 0
    print("order  moduli           |Aut|  swept  gelfand  mf-agree")
    for order in range(1, args.max_order + 1):
        types = abelian_types(order)
        for moduli in types:
            group = AbelianGroup(moduli)
            try:
                autos = automorphism_permutations(group)
            except GroupTooLarge as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if len(autos) <= FULL_SWEEP_LIMIT:
                sweep = autos
            else:
                sweep = list(conjugacy_classes(automorphism_group(group)).representatives)
            all_gelfand = True
            agreed = 0
            for f in sweep:
                big, small = affine_extension(group, f)
                verdict = is_gelfand_pair(big, small)
                all_gelfand = all_gelfand and verdict
                quandle = abelian_affine_quandle(group, f)
                if is_connected(quandle):
                    if bool(is_multiplicity_free(quandle)) == verdict:
                        agreed += 1
                    else:
                        print(f"DISAGREEMENT at {moduli}, {f!r}", file=sys.stderr)
                        return 1
                total += 1
            agreements += agreed
            name = "x".join(f"Z{m}" for m in moduli)
            print(f"{order:5d}  {name:15s}  {len(autos):5d}  {len(sweep):5d}  "
                  f"{'yes' if all_gelfand else 'NO':7s}  {agreed}")
        print(f"order {order}/{args.max_order}: {len(types)} types, {total} pairs so far, "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(f"{total} pairs in {time.perf_counter() - started:.1f}s; "
          f"orbital test agreed on all {agreements} connected instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
