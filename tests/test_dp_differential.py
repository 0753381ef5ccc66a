"""The one-pass walks over a witness, chain growth and the loop searches,
against the original definitions.

``term_pos_dps_alt`` and ``derivation_from_chain`` now share one pass that
builds every denoted term once.  At every index, on random Ackermann and
loop-system witnesses of length 0..6 (some with entries that are not
dependency pairs), they must give exactly what the original
``term_pos_dps_alt``, kept in ``helpers``, gives: the same term and
position, or the same error with the same message and entry.

``chain_from_loop`` now grows each entry from the subterm its predecessor
certified and checks each link once.  On cycles of the loop, nest and
detour systems and of the criterion-3 shapes in random inert contexts, at
lengths 1..8 and fuels low enough to stop growth at every stage, it must
give the original's witness or fail with the original's error.

``find_mint_subterm`` now walks the term once, post-order, with an explicit
stack, and searches only the subterms with a redex at or below them.  On
the criterion-3 shapes in random inert contexts, alone, side by side, and
beside a constructor tower ``s^j(c)`` with j up to 50, at fuels 0..12, it
must find the subterm and certificate of the original, which searches every
subterm, or None when that does.

``verify_chain_prefix`` now checks a witness in one pass, each entry
instantiated, validated and nr-checked once, and ``check_chained`` is that
pass over two entries.  On drawn witnesses of 0..6 entries over the
command-contract systems, chained or not, with lhs instances that hold a
redex and with entries that are no dependency pair, in both modes at fuels
0..40, each must give the verdict of the original, kept in ``helpers``:
the same status, failed link, reason and traces, or the same error with the
same message and entry.

``detect_innermost_loop`` now runs on one redex table per search.  On the
loop, nest, detour and growing systems and the criterion-3 shapes, from
fixed and drawn start terms at fuels 1..40, it must return the certificate
the original search over oracle successors returns, or None when that does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    ChainWitness,
    ConstructionFailure,
    InvalidDepPairError,
    PreconditionFailed,
    RelationMode,
    Substitution,
    chain_from_loop,
    check_chained,
    dep_pairs_alt,
    derivation_from_chain,
    derives,
    detect_innermost_loop,
    find_mint_subterm,
    match,
    normalize,
    subterm_at,
    term_pos_dps_alt,
    trs_of,
    verify_chain_prefix,
)

from helpers import (
    CONTRACT_SYSTEMS,
    B2,
    C0,
    F1,
    FORK0,
    G1,
    NEAR0,
    NOT_PAIRS,
    P1,
    S1,
    X,
    ack_system,
    ap,
    chain_witness,
    detour_system,
    explored,
    fc,
    grow_system,
    hg_system,
    loop_system,
    nat,
    nest_system,
    oracle_chain_from_loop,
    oracle_check_chained,
    oracle_derives,
    oracle_descendants,
    oracle_detect_innermost_loop,
    oracle_find_mint_subterm,
    oracle_term_pos_dps_alt,
    oracle_verify_chain_prefix,
    random_looping_instance,
    terms_over,
    witness_entries,
)

FUEL = 500
SYSTEMS = {
    "ack": (ack_system(), (nat(0), nat(1))),
    "loop": (loop_system(), (ap(C0),)),
    "nest": (nest_system(), (ap(C0),)),
    "hg": (hg_system(), (ap(C0), nat(0))),
}


@st.composite
def any_witness(draw):
    """A witness of valid and invalid pairs, chained or not."""
    trs, values = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    pairs = dep_pairs_alt(trs) + list(NOT_PAIRS)
    entries = draw(st.lists(witness_entries(values, pairs), max_size=6))
    return trs, ChainWitness(tuple(entries))


@st.composite
def chained_witness(draw):
    """A random innermost chain: each entry takes some pair the previous one's
    instantiated rhs subterm reaches at its root after normalizing below it."""
    trs, values = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    length = draw(st.integers(0, 6))
    entries = [draw(witness_entries(values, dep_pairs_alt(trs)))]
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
    except (
        IndexError, InvalidDepPairError, ConstructionFailure, PreconditionFailed
    ) as err:
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


@st.composite
def contract_witness(draw):
    """A system of the command-contract tests and a witness over it.  Half of
    the time one entry binds x to a rule's lhs, so that a lhs instance in
    the middle of a chain, not only at its ends, may hold a redex."""
    trs = CONTRACT_SYSTEMS[draw(st.sampled_from(sorted(CONTRACT_SYSTEMS)))]()
    entries = list(draw(chain_witness(trs)).entries)
    if entries and draw(st.booleans()):
        i = draw(st.integers(0, len(entries) - 1))
        redex = draw(st.sampled_from(trs.rules)).lhs
        entries[i] = (entries[i][0], Substitution({**dict(entries[i][1].items()), X: redex}))
    return trs, ChainWitness(tuple(entries))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(contract_witness(), st.booleans(), st.integers(0, 40))
def test_the_one_pass_chain_check_matches_the_oracle(case, innermost, fuel):
    """``verify_chain_prefix`` on the whole witness, and ``check_chained`` on
    each two consecutive entries, give the original's verdict or error."""
    trs, witness = case
    assert _outcome(verify_chain_prefix, trs, witness, innermost, fuel) == _outcome(
        oracle_verify_chain_prefix, trs, witness, innermost, fuel
    )
    for first, second in zip(witness.entries, witness.entries[1:]):
        assert _outcome(check_chained, trs, *first, *second, innermost, fuel) == _outcome(
            oracle_check_chained, trs, *first, *second, innermost, fuel
        )


LOOPING = {
    "loop": (loop_system(), fc()),
    "nest": (nest_system(), ap(P1, ap(C0))),
    "detour": (detour_system(), ap(F1, ap(NEAR0))),
}


@st.composite
def looping_instance(draw):
    """A system and a term with an innermost cycle, found at full fuel."""
    name = draw(st.sampled_from(sorted(LOOPING) + ["criterion-3"]))
    if name == "criterion-3":
        trs, start = random_looping_instance(draw(st.randoms(use_true_random=False)))
    else:
        trs, start = LOOPING[name]
    cert = detect_innermost_loop(trs, start, FUEL)
    assert cert is not None
    return trs, cert


@settings(max_examples=300, deadline=None)
@given(looping_instance(), st.integers(1, 8), st.integers(0, 12))
def test_chain_from_loop_matches_the_oracle(instance, k, fuel):
    trs, cert = instance
    assert _outcome(chain_from_loop, trs, cert, k, fuel) == _outcome(
        oracle_chain_from_loop, trs, cert, k, fuel
    )


@pytest.mark.parametrize(
    "fuel, reason",
    [
        (2, "no-mint-within-fuel"),
        (4, "fuel-exhausted-normalizing"),
        (6, "link-not-chained:not-found"),
    ],
)
def test_chain_from_loop_fails_like_the_oracle(fuel, reason):
    """The detour system stops growth at each stage the fuel can cut off."""
    trs, start = LOOPING["detour"]
    cert = detect_innermost_loop(trs, start, FUEL)
    want = (ConstructionFailure, reason, None)
    assert _outcome(chain_from_loop, trs, cert, 3, fuel) == want
    assert _outcome(oracle_chain_from_loop, trs, cert, 3, fuel) == want


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12))
def test_find_mint_subterm_matches_the_oracle_in_inert_contexts(rng, fuel):
    trs, start = random_looping_instance(rng)
    tower = ap(C0)
    for _ in range(rng.randint(0, 50)):
        tower = ap(S1, tower)
    for term in (start, ap(B2, start, start), ap(B2, tower, start), ap(B2, start, tower)):
        got = find_mint_subterm(trs, term, fuel)
        assert got == oracle_find_mint_subterm(trs, term, fuel)


LOOP_FUELS = range(1, 41)
LOOP_SEARCHES = {
    "loop": (loop_system(), (fc(), ap(F1, fc()))),
    "nest": (nest_system(), (ap(P1, ap(C0)), ap(P1, ap(P1, ap(C0))))),
    "detour": (detour_system(), (ap(F1, ap(FORK0)), ap(F1, ap(NEAR0)))),
    "grow": (grow_system(), (ap(G1, X), ap(G1, ap(G1, ap(C0))))),
}


def _same_loop_search(trs, start):
    for fuel in LOOP_FUELS:
        got = detect_innermost_loop(trs, start, fuel)
        assert got == oracle_detect_innermost_loop(trs, start, fuel), fuel


@pytest.mark.parametrize("name", sorted(LOOP_SEARCHES))
def test_loop_search_matches_the_oracle(name):
    trs, starts = LOOP_SEARCHES[name]
    for start in starts:
        _same_loop_search(trs, start)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(LOOP_SEARCHES)), st.data())
def test_loop_search_matches_the_oracle_from_drawn_terms(name, data):
    trs, _ = LOOP_SEARCHES[name]
    _same_loop_search(trs, data.draw(terms_over(trs.signature.symbols, max_leaves=4)))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_loop_search_matches_the_oracle_in_inert_contexts(rng):
    _same_loop_search(*random_looping_instance(rng))


def test_one_term_searched_under_two_systems():
    """Each search keeps its own redex table: the same term object, searched
    under systems with the same symbols and different rules, gets each
    system's own answer, in either order."""
    c = ap(C0)
    start = ap(F1, c)
    looping = trs_of((ap(F1, c), ap(F1, c)))
    halting = trs_of((ap(F1, X), c))
    assert looping.signature == halting.signature
    for first, second in ((looping, halting), (halting, looping)):
        for trs in (first, second):
            _same_loop_search(trs, start)
            for fuel in (1, 2, 5):
                for mode in RelationMode:
                    assert explored(trs, start, mode, fuel) == oracle_descendants(
                        trs, start, mode, fuel
                    )
                    assert derives(trs, start, c, mode, fuel) == oracle_derives(
                        trs, start, c, mode, fuel
                    )
    assert detect_innermost_loop(looping, start, 5) is not None
    assert detect_innermost_loop(halting, start, 5) is None
