"""The one pass over a witness's denoted terms against the original definition.

``term_pos_dps_alt`` and ``derivation_from_chain`` now share one pass that
builds every denoted term once.  At every index, on random Ackermann and
loop-system witnesses of length 0..6 (some with entries that are not
dependency pairs), they must give exactly what the original
``term_pos_dps_alt``, kept in ``helpers``, gives: the same term and
position, or the same error with the same message and entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    ChainWitness,
    DepPairAlt,
    InvalidDepPairError,
    PreconditionFailed,
    RelationMode,
    Substitution,
    dep_pairs_alt,
    derivation_from_chain,
    match,
    normalize,
    subterm_at,
    term_pos_dps_alt,
)

from helpers import (
    C0,
    X,
    Y,
    ack_system,
    ap,
    hg_system,
    loop_system,
    nat,
    nest_system,
    oracle_term_pos_dps_alt,
)

FUEL = 500
NOT_PAIRS = (DepPairAlt(0, ()), DepPairAlt(0, (9,)), DepPairAlt(7, ()))
SYSTEMS = {
    "ack": (ack_system(), (nat(0), nat(1))),
    "loop": (loop_system(), (ap(C0),)),
    "nest": (nest_system(), (ap(C0),)),
    "hg": (hg_system(), (ap(C0), nat(0))),
}


def _entries(trs, values, pairs):
    sigma = st.tuples(st.sampled_from(values), st.sampled_from(values)).map(
        lambda xy: Substitution({X: xy[0], Y: xy[1]})
    )
    return st.tuples(st.sampled_from(pairs), sigma)


@st.composite
def any_witness(draw):
    """A witness of valid and invalid pairs, chained or not."""
    trs, values = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    pairs = dep_pairs_alt(trs) + list(NOT_PAIRS)
    entries = draw(st.lists(_entries(trs, values, pairs), max_size=6))
    return trs, ChainWitness(tuple(entries))


@st.composite
def chained_witness(draw):
    """A random innermost chain: each entry takes some pair the previous one's
    instantiated rhs subterm reaches at its root after normalizing below it."""
    trs, values = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    length = draw(st.integers(0, 6))
    entries = [draw(_entries(trs, values, dep_pairs_alt(trs)))]
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(length - 1):
        dp, sigma = entries[-1]
        rhs_sub = sigma.apply(subterm_at(trs.rules[dp.rule_index].rhs, dp.position))
        t = normalize(trs, rhs_sub, RelationMode.NON_ROOT_INNERMOST, FUEL).end
        options = [
            (dp2, sigma2)
            for dp2 in dep_pairs_alt(trs)
            if (sigma2 := match(trs.rules[dp2.rule_index].lhs, t)) is not None
        ]
        if not options:
            break
        entries.append(rng.choice(options))
    return trs, ChainWitness(tuple(entries[:length]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (IndexError, InvalidDepPairError) as err:
        return type(err), str(err), getattr(err, "entry", None)


@settings(max_examples=300, deadline=None)
@given(any_witness())
def test_term_pos_dps_alt_matches_the_oracle_at_every_index(case):
    trs, witness = case
    for i in range(-1, len(witness) + 2):
        assert _outcome(term_pos_dps_alt, trs, witness, i) == _outcome(
            oracle_term_pos_dps_alt, trs, witness, i
        )


@settings(max_examples=150, deadline=None)
@given(any_witness())
def test_derivation_from_chain_on_any_witness(case):
    """Invalid or unchained witnesses are refused; otherwise the terms are the oracle's."""
    trs, witness = case
    try:
        links = derivation_from_chain(trs, witness, FUEL)
    except (InvalidDepPairError, PreconditionFailed):
        return
    terms = [oracle_term_pos_dps_alt(trs, witness, i)[0] for i in range(len(witness))]
    assert [term for term, _ in links] == terms[:-1]
    assert [trace.end for _, trace in links] == terms[1:]


@settings(max_examples=150, deadline=None)
@given(chained_witness())
def test_derivation_from_chain_terms_match_the_oracle(case):
    trs, witness = case
    links = derivation_from_chain(trs, witness, FUEL)
    assert len(links) == max(len(witness) - 1, 0)
    terms = [oracle_term_pos_dps_alt(trs, witness, i)[0] for i in range(len(witness))]
    assert [term for term, _ in links] == terms[:-1]
    assert [trace.end for _, trace in links] == terms[1:]
    for (term, trace), (_, pos) in zip(
        links, (oracle_term_pos_dps_alt(trs, witness, i) for i in range(len(witness)))
    ):
        assert trace.start == term
        assert trace.steps[-1].position == pos
