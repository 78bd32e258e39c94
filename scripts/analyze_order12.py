#!/usr/bin/env python3
"""Walk through the bundled order-12 quandle step by step.

This is the smallest connected quandle whose module over its inner group
is not multiplicity free, so every stage of the pipeline has something to
show: a rank that exceeds the class count a latin quandle of this size
could have, orbital matrices that refuse to commute, and a double-coset
algebra that is not commutative.
"""

import sys

from quandlekit import (
    bundled_order12,
    burnside_rank,
    double_cosets,
    element_order_profile,
    inner_group,
    is_gelfand_pair,
    is_latin,
    is_multiplicity_free,
    stabilizer,
    tau_quotient,
    tensor_square,
)


def main():
    q = bundled_order12()
    print(f"order {q.order}, latin: {is_latin(q)}")

    group = inner_group(q)
    print(f"inner group order {len(group)}, "
          f"element order profile {element_order_profile(group)}")

    stab = stabilizer(group, 0)
    print(f"stabilizer of 0 has order {len(stab)}")

    rank = burnside_rank(group)
    square = tensor_square(q)
    quotient = tau_quotient(square)
    print(f"rank {rank}, tensor classes {len(square)} "
          f"(sizes {list(square.sizes)}), tau classes {len(quotient)}")

    verdict = is_multiplicity_free(q)
    print(f"multiplicity free: {verdict.value}")
    if verdict.witness is not None:
        print(f"  {verdict.witness.describe()}")
        # the support of orbital matrix a is the size of tensor class a
        a, b = verdict.witness.first, verdict.witness.second
        print(f"  matrix {a} support {square.sizes[a]} pairs, "
              f"matrix {b} support {square.sizes[b]} pairs")

    part = double_cosets(group, stab)
    print(f"double cosets: {len(part)} with sizes {part.counts.tolist()}")
    print(f"gelfand pair: {is_gelfand_pair(group, stab, part)}")

    # rank 7 = 1 + 1 + 1 + 4: three multiplicity-one constituents and one
    # appearing twice; a multiplicity-free module of this dimension would
    # have rank equal to its constituent count
    return 0


if __name__ == "__main__":
    sys.exit(main())
