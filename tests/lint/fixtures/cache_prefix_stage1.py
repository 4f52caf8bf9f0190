"""Pre-fix reconstruction of the PR 2 cache-identity bug for L002.

``prepare_leaves_prefix`` is the shape GCI stage-1 leaf construction
had before PR 2: inbound subset constraints were applied with the
*cached*, signature-keyed ``ops.intersect``, so a cache hit could
substitute a language-equal machine with different start/final
structure — and the stage-4 bridge images (hence the final answer)
depended on cache history.  ``prepare_leaves_fixed`` is the post-fix
shape: the uncached, structure-faithful product.  Lint fixture; see
purity_prefix_dfa.py for why this directory is walk-excluded.
"""


def prepare_leaves_prefix(graph, group, ops):
    # dprle-lint: identity-sensitive
    machines = {}
    for leaf in sorted(group, key=lambda n: n.name):
        base = graph.machine(leaf)
        for const_node in graph.inbound_subsets(leaf):
            base = ops.intersect(base, graph.machine(const_node))
        base = ops.minimize(base)
        machines[leaf] = base
    return machines


def prepare_leaves_fixed(graph, group, ops):
    # dprle-lint: identity-sensitive
    machines = {}
    for leaf in sorted(group, key=lambda n: n.name):
        base = graph.machine(leaf)
        for const_node in graph.inbound_subsets(leaf):
            base = ops.product(base, graph.machine(const_node))
        machines[leaf] = base
    return machines
