"""Oracles the tests hold the program's invariant kernels to.

Each invariant kernel in the program is the kernel of E_01 on the
Weyl-orbit sums of a weight space (`invariants._invariant_system`).  The
system it replaced stacks operators E_rs on the whole weight space, over
basis positions: the g - 1 simple raising operators, or, as the oracle
for those, all g(g - 1) operators.  Both stay here.
"""

from tautrings.invariants import _action_rows, _tensor_alphabet, _weight_words
from tautrings.linalg import kernel_basis_columns, rank_of_int_rows


def simple_pairs(g: int) -> list[tuple[int, int]]:
    """The simple raising operators E_{r,r+1} of gl_g, as (r, s) pairs."""
    return [(r, r + 1) for r in range(g - 1)]


def all_pairs(g: int) -> list[tuple[int, int]]:
    """Every E_rs with r != s."""
    return [(r, s) for r in range(g) for s in range(g) if r != s]


def stacked_rows(alphabet, basis, pairs=None) -> list[dict[int, int]]:
    """The rows of the operators in pairs (the simple raising operators
    by default) stacked on the span of basis, over basis positions."""
    return _action_rows(alphabet, basis,
                        simple_pairs(alphabet.g) if pairs is None else pairs,
                        [(j, 1) for j in range(len(basis))])


def stacked_dim(alphabet, basis, pairs=None) -> int:
    return len(basis) - rank_of_int_rows(stacked_rows(alphabet, basis, pairs))


def stacked_kernel(alphabet, basis, pairs=None):
    """A kernel basis of the stacked system, over basis positions."""
    return kernel_basis_columns(stacked_rows(alphabet, basis, pairs),
                                len(basis))


def tensor_cell(spec, group):
    """(words, letters): the words of T^{k,l}(Q^g) of the weight a GL- or
    SL-invariant must have, and the same words as letter-id tuples of
    `invariants._tensor_alphabet(spec)`."""
    k, l, g = spec.k, spec.l, spec.g
    if (k - l) % g or (group == "GL" and k != l):
        return [], []
    words = _weight_words(spec, ((k - l) // g,) * g)
    return words, [tuple(pos * g + i for pos, i in enumerate(w))
                   for w in words]


def stacked_tensor_system(spec, group):
    """(words, rows): the weight words of `tensor_cell` and the stacked
    simple raising operators on their span."""
    words, letters = tensor_cell(spec, group)
    return words, stacked_rows(_tensor_alphabet(spec), letters)
