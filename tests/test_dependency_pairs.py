import pytest

from rdp import (
    ChainWitness,
    ConstructionFailure,
    DepPair,
    DepPairAlt,
    DerivationTrace,
    EMPTY_SUBSTITUTION,
    InvalidDepPairError,
    LoopCertificate,
    PreconditionFailed,
    RelationMode,
    Step,
    Substitution,
    Var,
    canonical_pair,
    chain_from_loop,
    check_certificate,
    check_cc_dp_correspondence,
    check_chained,
    check_trace,
    dep_pairs_alt,
    derivation_from_chain,
    detect_innermost_loop,
    dp_and_sub_from_nrnf,
    find_mint_subterm,
    is_dep_pair_alt,
    next_dp_and_sub,
    parse_chain_witness,
    standard_dep_pairs,
    term_pos_dps_alt,
    to_standard,
    unary_encoder,
    validate_witness,
    verify_chain_prefix,
)
from rdp.dependency_pairs import NOT_FOUND, PRECONDITION_FAILED, VERIFIED

from rdp import trs_of

from helpers import (
    C0,
    F1,
    G1,
    G2,
    H2,
    LOOP1,
    P1,
    Q1,
    S1,
    W1,
    X,
    Y,
    Z0,
    ack,
    ack_system,
    ap,
    fc,
    grow_system,
    growing_wrap_system,
    hg_system,
    loop_system,
    nat,
    nest_system,
)


def sub(**bindings):
    return Substitution({Var(name): term for name, term in bindings.items()})


# --- extraction ------------------------------------------------------------


def test_is_dep_pair_alt():
    trs = ack_system()
    assert is_dep_pair_alt(trs, DepPairAlt(1, ()))
    assert is_dep_pair_alt(trs, DepPairAlt(2, (2,)))
    assert not is_dep_pair_alt(trs, DepPairAlt(0, ()))  # rhs root is s
    assert not is_dep_pair_alt(trs, DepPairAlt(2, (2, 2)))  # subterm is y
    assert not is_dep_pair_alt(trs, DepPairAlt(2, (9,)))
    assert not is_dep_pair_alt(trs, DepPairAlt(2, (2, 2, 1)))  # below the variable y
    assert not is_dep_pair_alt(trs, DepPairAlt(2, (0,)))
    assert not is_dep_pair_alt(trs, DepPairAlt(5, ()))


def test_dep_pairs_alt_ackermann():
    assert dep_pairs_alt(ack_system()) == [
        DepPairAlt(1, ()),
        DepPairAlt(2, ()),
        DepPairAlt(2, (2,)),
    ]


def test_dep_pairs_alt_hg():
    assert dep_pairs_alt(hg_system()) == [
        DepPairAlt(0, ()),
        DepPairAlt(0, (1,)),
        DepPairAlt(0, (2,)),
        DepPairAlt(0, (2, 1)),
        DepPairAlt(1, ()),
    ]


def test_to_standard():
    trs = ack_system()
    assert to_standard(trs, DepPairAlt(1, ())) == DepPair(
        ack(ap(S1, X), ap(Z0)), ack(X, ap(S1, ap(Z0)))
    )
    assert to_standard(trs, DepPairAlt(2, (2,))) == DepPair(
        ack(ap(S1, X), ap(S1, Y)), ack(ap(S1, X), Y)
    )
    with pytest.raises(InvalidDepPairError):
        to_standard(trs, DepPairAlt(0, ()))


def test_canonical_pair_identifies_variants():
    u, v = Var("u"), Var("v")
    a_pair = DepPair(ap(H2, X, Y), ap(G2, X, Y))
    b_pair = DepPair(ap(H2, u, v), ap(G2, u, v))
    assert canonical_pair(a_pair) == canonical_pair(b_pair)
    assert canonical_pair(a_pair) == DepPair(
        ap(H2, Var("v1"), Var("v2")), ap(G2, Var("v1"), Var("v2"))
    )


def test_canonical_pair_orders_by_first_occurrence():
    pair = DepPair(ap(H2, Y, X), ap(G2, X, Y))
    assert canonical_pair(pair) == DepPair(
        ap(H2, Var("v1"), Var("v2")), ap(G2, Var("v2"), Var("v1"))
    )


def test_standard_dep_pairs_hg_collapse():
    """The h-to-g pair arises from three different sources and dedups to one."""
    trs = hg_system()
    raw = standard_dep_pairs(trs)
    assert len(raw) == 5
    target = canonical_pair(DepPair(ap(H2, X, Y), ap(G2, X, Y)))
    sources = [p for p in raw if canonical_pair(p) == target]
    assert len(sources) == 3
    assert len(standard_dep_pairs(trs, dedup=True)) == 3


def test_validate_witness_reports_entry():
    trs = ack_system()
    witness = ChainWitness(((DepPairAlt(1, ()), sub()), (DepPairAlt(0, ()), sub())))
    with pytest.raises(InvalidDepPairError) as info:
        validate_witness(trs, witness)
    assert info.value.entry == 1


# --- chain links -----------------------------------------------------------


def test_check_chained_innermost_zero_step():
    trs = ack_system()
    verdict = check_chained(
        trs,
        DepPairAlt(2, (2,)),
        sub(x=ap(Z0), y=nat(1)),
        DepPairAlt(2, (2,)),
        sub(x=ap(Z0), y=ap(Z0)),
        innermost=True,
    )
    assert verdict.status == VERIFIED
    assert verdict.trace is not None
    assert verdict.trace.steps == ()
    assert verdict.trace.start == ack(nat(1), nat(1))


def test_check_chained_non_root_descent():
    trs = ack_system()
    verdict = check_chained(
        trs,
        DepPairAlt(2, ()),
        sub(x=nat(1), y=ap(Z0)),
        DepPairAlt(2, ()),
        sub(x=ap(Z0), y=ack(nat(1), ap(Z0))),
        innermost=False,
        fuel=10_000,
    )
    assert verdict.status == VERIFIED
    assert verdict.trace is not None
    assert check_trace(trs, verdict.trace)


def test_check_chained_innermost_precondition():
    """The same link that chains under non-root rewriting fails the innermost
    precondition: its second instantiated lhs contains a redex."""
    trs = ack_system()
    verdict = check_chained(
        trs,
        DepPairAlt(2, ()),
        sub(x=nat(1), y=ap(Z0)),
        DepPairAlt(2, ()),
        sub(x=ap(Z0), y=ack(nat(1), ap(Z0))),
        innermost=True,
    )
    assert verdict.status == PRECONDITION_FAILED
    assert verdict.reason == "second-lhs-instance-not-nr-normal"


def test_check_chained_not_found():
    trs = ack_system()
    verdict = check_chained(
        trs,
        DepPairAlt(1, ()),
        sub(x=ap(Z0)),
        DepPairAlt(1, ()),
        sub(x=ap(Z0)),
        innermost=True,
        fuel=1000,
    )
    assert verdict.status == NOT_FOUND
    assert verdict.trace is None


def test_check_chained_rejects_bad_pairs():
    trs = ack_system()
    with pytest.raises(InvalidDepPairError):
        check_chained(trs, DepPairAlt(0, ()), sub(), DepPairAlt(1, ()), sub(), False)


NOT_A_PAIR = "not a dependency pair of this TRS: (0, ε)"
GOOD, BAD = (DepPairAlt(1, ()), sub()), (DepPairAlt(0, ()), sub())
REJECTION_SITES = {
    "to_standard": (lambda trs, _: to_standard(trs, BAD[0]), None),
    "validate_witness": (
        lambda trs, _: validate_witness(trs, ChainWitness((GOOD, BAD))), 1),
    "check_chained": (lambda trs, _: check_chained(trs, *GOOD, *BAD, False), None),
    "next_dp_and_sub": (lambda trs, _: next_dp_and_sub(trs, *BAD, 50), None),
    "parse_chain_witness": (
        lambda trs, _: parse_chain_witness(
            '{"entries": [{"rule": 1}, {"rule": 0}]}', trs), 1),
    "check_cc_dp_correspondence": (
        lambda trs, program: check_cc_dp_correspondence(
            program, trs, unary_encoder(trs), [(0, BAD[0])], [(0, 0)]), None),
}


@pytest.mark.parametrize("site", sorted(REJECTION_SITES))
def test_every_site_rejects_a_non_pair_alike(ack_program, site):
    call, entry = REJECTION_SITES[site]
    with pytest.raises(InvalidDepPairError) as info:
        call(ack_system(), ack_program)
    prefix = "" if entry is None else f"entry {entry} is "
    assert str(info.value) == prefix + NOT_A_PAIR
    assert info.value.entry == entry


def test_verify_chain_prefix_vacuous():
    trs = ack_system()
    assert verify_chain_prefix(trs, ChainWitness(()), True).status == VERIFIED
    single = ChainWitness(((DepPairAlt(1, ()), sub(x=ap(Z0))),))
    assert verify_chain_prefix(trs, single, True).status == VERIFIED


def test_verify_chain_prefix_reports_first_failure():
    trs = ack_system()
    good = (DepPairAlt(2, (2,)), sub(x=ap(Z0), y=nat(1)))
    also_good = (DepPairAlt(2, (2,)), sub(x=ap(Z0), y=ap(Z0)))
    bad = (DepPairAlt(1, ()), sub(x=nat(5)))
    verdict = verify_chain_prefix(
        trs, ChainWitness((good, also_good, bad)), innermost=True, fuel=500
    )
    assert verdict.status == NOT_FOUND
    assert verdict.failed_index == 1
    assert len(verdict.traces) == 1


# --- necessity: witness to derivation --------------------------------------


INNER_ACK_WITNESS = (
    (DepPairAlt(2, (2,)), {"x": "0", "y": "s(0)"}),
    (DepPairAlt(2, (2,)), {"x": "0", "y": "0"}),
)


def inner_ack_witness():
    entries = []
    values = {"0": ap(Z0), "s(0)": nat(1)}
    for dp, raw in INNER_ACK_WITNESS:
        entries.append((dp, sub(**{n: values[t] for n, t in raw.items()})))
    return ChainWitness(tuple(entries))


def test_term_pos_dps_alt_base_and_step():
    trs = ack_system()
    witness = inner_ack_witness()
    term0, pos0 = term_pos_dps_alt(trs, witness, 0)
    assert term0 == ack(ap(Z0), ack(nat(1), nat(1)))
    assert pos0 == (2,)
    term1, pos1 = term_pos_dps_alt(trs, witness, 1)
    assert term1 == ack(ap(Z0), ack(ap(Z0), ack(nat(1), ap(Z0))))
    assert pos1 == (2, 2)
    with pytest.raises(IndexError):
        term_pos_dps_alt(trs, witness, 2)


def test_term_pos_dps_alt_loop_self_replacement():
    trs = loop_system()
    entry = (DepPairAlt(0, ()), sub(x=ap(C0)))
    witness = ChainWitness((entry, entry))
    assert term_pos_dps_alt(trs, witness, 1) == (fc(), ())


def test_derivation_from_chain_ackermann():
    trs = ack_system()
    links = derivation_from_chain(trs, inner_ack_witness())
    assert len(links) == 1
    term, trace = links[0]
    assert term == ack(ap(Z0), ack(nat(1), nat(1)))
    assert trace.mode == RelationMode.INNERMOST
    assert len(trace.steps) == 1
    assert trace.steps[0].position == (2,)
    assert trace.end == ack(ap(Z0), ack(ap(Z0), ack(nat(1), ap(Z0))))
    assert check_trace(trs, trace)


def test_derivation_from_chain_loop():
    trs = loop_system()
    entry = (DepPairAlt(0, ()), sub(x=ap(C0)))
    links = derivation_from_chain(trs, ChainWitness((entry,) * 3))
    assert [term for term, _ in links] == [fc(), fc()]
    for _, trace in links:
        assert len(trace.steps) == 1
        assert trace.end == fc()
        assert check_trace(trs, trace)


def test_derivation_from_chain_requires_verified_witness():
    trs = ack_system()
    bad = ChainWitness(
        (
            (DepPairAlt(1, ()), sub(x=ap(Z0))),
            (DepPairAlt(1, ()), sub(x=ap(Z0))),
        )
    )
    with pytest.raises(PreconditionFailed):
        derivation_from_chain(trs, bad, fuel=200)


# --- sufficiency: loops to witnesses ---------------------------------------


def test_loop_certificate_shape_is_enforced():
    good = DerivationTrace(
        fc(), (Step((), 0, sub(x=ap(C0)), fc()),), RelationMode.INNERMOST
    )
    LoopCertificate(good)
    with pytest.raises(ValueError):
        LoopCertificate(DerivationTrace(fc(), (), RelationMode.INNERMOST))
    with pytest.raises(ValueError):
        LoopCertificate(
            DerivationTrace(
                fc(), (Step((), 0, sub(x=ap(C0)), fc()),), RelationMode.FULL
            )
        )
    with pytest.raises(ValueError):
        LoopCertificate(
            DerivationTrace(
                ap(LOOP1, ap(C0)),
                (Step((), 0, sub(), fc()),),
                RelationMode.INNERMOST,
            )
        )


def test_detect_innermost_loop_self_loop():
    cert = detect_innermost_loop(loop_system(), fc(), 100)
    assert cert is not None
    assert cert.trace.start == fc()
    assert len(cert.trace.steps) == 1
    assert check_certificate(loop_system(), cert)


def test_detect_innermost_loop_two_rule_cycle():
    trs = trs_of(
        (ap(P1, X), ap(Q1, X)),
        (ap(Q1, X), ap(P1, X)),
    )
    cert = detect_innermost_loop(trs, ap(P1, ap(C0)), 100)
    assert cert is not None
    assert len(cert.trace.steps) == 2
    assert check_certificate(trs, cert)


def test_detect_innermost_loop_none_on_terminating():
    assert detect_innermost_loop(ack_system(), ack(nat(1), nat(1)), 1000) is None


def test_detect_innermost_loop_none_on_growing():
    """Nontermination without a cycle is never claimed."""
    assert detect_innermost_loop(grow_system(), ap(G1, X), 300) is None
    assert detect_innermost_loop(grow_system(), ap(G1, X), 800) is None


def test_detect_innermost_loop_under_context():
    cert = detect_innermost_loop(loop_system(), ap(F1, fc()), 50)
    assert cert is not None


def test_find_mint_subterm_prefers_arguments():
    trs = nest_system()
    found = find_mint_subterm(trs, ap(Q1, ap(LOOP1, ap(C0))), 100)
    assert found is not None
    pos, cert = found
    assert pos == (1,)
    assert cert.trace.start == ap(LOOP1, ap(C0))


def test_find_mint_subterm_self_when_arguments_quiet():
    found = find_mint_subterm(loop_system(), fc(), 100)
    assert found is not None
    assert found[0] == ()


def test_find_mint_subterm_none():
    assert find_mint_subterm(ack_system(), ack(nat(1), nat(1)), 500) is None


def test_mint_and_chain_answer_under_a_deep_context():
    """``f(c)`` under 3,000 levels of ``w``, past the default recursion
    limit: the loop search certifies the whole term, and the minimal looping
    subterm and a chain grown from the cycle are found too."""
    trs = loop_system()
    term = fc()
    for _ in range(3000):
        term = ap(W1, term)
    pos, cert = find_mint_subterm(trs, term, 50)
    assert pos == (1,) * 3000
    assert cert.trace.start == fc()
    loop = detect_innermost_loop(trs, term, 50)
    assert loop is not None and loop.trace.start == term
    witness = chain_from_loop(trs, loop, 3, 50)
    assert witness.entries == ((DepPairAlt(0, ()), sub(x=ap(C0))),) * 3
    assert verify_chain_prefix(trs, witness, innermost=True, fuel=50).status == VERIFIED


def test_dp_and_sub_from_nrnf_loop_fixed_point():
    trs = loop_system()
    dp, sigma, mint = dp_and_sub_from_nrnf(trs, fc(), 100)
    assert dp == DepPairAlt(0, ())
    assert sigma == sub(x=ap(C0))
    assert mint == fc()


def test_dp_and_sub_from_nrnf_nested_mint():
    """The looping subterm sits below the root of the reduct."""
    trs = nest_system()
    dp, sigma, mint = dp_and_sub_from_nrnf(trs, ap(P1, ap(C0)), 100)
    assert dp == DepPairAlt(0, (1,))
    assert sigma == sub(x=ap(C0))
    assert mint == ap(LOOP1, ap(C0))


def test_dp_and_sub_from_nrnf_failures():
    with pytest.raises(ConstructionFailure, match="not-nr-normal"):
        dp_and_sub_from_nrnf(loop_system(), ap(F1, fc()), 50)
    with pytest.raises(ConstructionFailure, match="no-root-rule"):
        dp_and_sub_from_nrnf(nest_system(), ap(Q1, ap(C0)), 50)
    with pytest.raises(ConstructionFailure, match="no-mint-within-fuel"):
        dp_and_sub_from_nrnf(growing_wrap_system(), ap(P1, ap(C0)), 100)


def test_next_dp_and_sub_loop_fixed_point():
    trs = loop_system()
    dp, sigma = next_dp_and_sub(trs, DepPairAlt(0, ()), sub(x=ap(C0)), 100)
    assert (dp, sigma) == (DepPairAlt(0, ()), sub(x=ap(C0)))


def test_next_dp_and_sub_crosses_into_the_nested_loop():
    trs = nest_system()
    dp, sigma = next_dp_and_sub(trs, DepPairAlt(0, (1,)), sub(x=ap(C0)), 100)
    assert dp == DepPairAlt(1, ())
    assert sigma == sub(x=ap(C0))


def test_next_dp_and_sub_failures():
    trs = loop_system()
    with pytest.raises(ConstructionFailure, match="lhs-instance-not-nr-normal"):
        next_dp_and_sub(trs, DepPairAlt(0, ()), sub(x=fc()), 50)
    with pytest.raises(InvalidDepPairError):
        next_dp_and_sub(trs, DepPairAlt(3, ()), sub(), 50)
    with pytest.raises(ConstructionFailure, match="no-loop-certificate"):
        next_dp_and_sub(
            growing_wrap_system(), DepPairAlt(0, (1,)), sub(x=ap(C0)), 100
        )


def test_chain_from_loop_lengths():
    trs = loop_system()
    cert = detect_innermost_loop(trs, fc(), 100)
    assert cert is not None
    for k in (1, 2, 5):
        witness = chain_from_loop(trs, cert, k, 200)
        assert len(witness) == k
        assert all(
            entry == (DepPairAlt(0, ()), sub(x=ap(C0)))
            for entry in witness.entries
        )
        assert verify_chain_prefix(trs, witness, True, 200).status == VERIFIED


def test_chain_from_loop_rejects_bad_arguments():
    trs = loop_system()
    cert = detect_innermost_loop(trs, fc(), 100)
    assert cert is not None
    with pytest.raises(ValueError):
        chain_from_loop(trs, cert, 0, 100)
    forged = LoopCertificate(
        DerivationTrace(
            fc(), (Step((), 0, EMPTY_SUBSTITUTION, fc()),), RelationMode.INNERMOST
        )
    )
    with pytest.raises(PreconditionFailed, match="does-not-replay"):
        chain_from_loop(trs, forged, 2, 100)
