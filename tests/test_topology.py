"""Relationship model, parsers, destination attachment, generators."""

from __future__ import annotations

import itertools
import logging
import random
import re
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchmap import (
    DestinationSpec,
    Relationship,
    Topology,
    VF_LOCAL_PREF,
    apply_prepending,
    attach_destination,
    build_rgraph,
    derive_vf_policies,
    generate_random_topology,
    parse_caida_asrel,
    parse_oracle_file,
    parse_scenario_file,
    parse_topology,
    serialize_topology,
)
from catchmap.errors import (
    DestinationSpecError,
    EdgeConflictError,
    GenerationError,
    PolicyError,
    TopologyParseError,
    UnknownNodeError,
)
from catchmap.scenario import build_augmented, parse_topology_text

import helpers


class TestRelationships:
    def test_reversal_is_an_involution(self):
        for rel in Relationship:
            assert rel.reversed().reversed() == rel

    def test_peer_link_is_its_own_reverse(self):
        assert Relationship.P2P.reversed() == Relationship.P2P

    def test_customer_routes_most_preferred(self):
        assert (
            VF_LOCAL_PREF[Relationship.P2C]
            > VF_LOCAL_PREF[Relationship.P2P]
            > VF_LOCAL_PREF[Relationship.C2P]
        )

    def test_concrete_preference_values(self):
        assert VF_LOCAL_PREF[Relationship.P2C] == 3.0
        assert VF_LOCAL_PREF[Relationship.P2P] == 2.0
        assert VF_LOCAL_PREF[Relationship.C2P] == 1.0


class TestTopologyEdges:
    def test_edge_stores_both_directions(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        assert topo.relationship(1, 2) == Relationship.P2C
        assert topo.relationship(2, 1) == Relationship.C2P

    def test_conflicting_redeclaration_rejected(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        with pytest.raises(EdgeConflictError):
            topo.add_edge(1, 2, Relationship.P2P)

    def test_same_relationship_redeclaration_is_noop(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        topo.add_edge(2, 1, Relationship.C2P)
        assert topo.num_edges == 1

    def test_self_loop_rejected(self):
        topo = Topology()
        with pytest.raises(EdgeConflictError):
            topo.add_edge(3, 3, Relationship.P2P)

    def test_derivations_leave_their_input_unchanged(self):
        # each derived topology shares the rows it does not change
        base = generate_random_topology(40, seed=3)
        vf = derive_vf_policies(base)
        assert all(vf.relationships(n) is base.relationships(n) for n in base.nodes())
        spec = DestinationSpec(attachments={1: "m1", 2: "m1", 3: "m2"})
        aug = attach_destination(vf, spec)
        derivations = [
            (base, lambda: derive_vf_policies(base)),
            (vf, lambda: attach_destination(vf, spec).topology),
            (aug.topology, lambda: apply_prepending(aug, "m1", 2).topology),
        ]
        for source, derive in derivations:
            before = _state(source)
            derived = derive()
            assert _state(source) == before
            derived.add_node(1000)
            assert _state(source) == before


def _state(topo: Topology) -> tuple[str, list]:
    """The canonical text and every row's items, in key order."""
    rows = [(n, list(topo.relationships(n).items())) for n in topo.nodes()]
    return serialize_topology(topo), rows


class TestPolicies:
    def test_preference_requires_derived_policies(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        with pytest.raises(PolicyError):
            topo.local_pref(1, 2)

    def test_customer_preferred_over_peer(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        topo.add_edge(1, 3, Relationship.P2P)
        vf = derive_vf_policies(topo)
        assert vf.local_pref(1, 2) == 3.0
        assert vf.local_pref(1, 3) == 2.0
        assert vf.local_pref(1, 2) > vf.local_pref(1, 3)

    def test_customer_learned_routes_exported_everywhere(self):
        # 2 is node 1's customer; 3 a peer; 4 a provider
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        topo.add_edge(1, 3, Relationship.P2P)
        topo.add_edge(1, 4, Relationship.C2P)
        vf = derive_vf_policies(topo)
        assert vf.exports(1, 2, 3)
        assert vf.exports(1, 2, 4)
        assert vf.exports(1, 2, 2)

    def test_provider_learned_routes_exported_only_to_customers(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        topo.add_edge(1, 3, Relationship.P2P)
        topo.add_edge(1, 4, Relationship.C2P)
        vf = derive_vf_policies(topo)
        assert vf.exports(1, 4, 2)
        assert not vf.exports(1, 4, 3)
        assert not vf.exports(1, 3, 4)

    def test_provider_cycle_is_named(self):
        # 1 is a provider of 2, 2 of 3, 3 of 1; node 4 hangs off the cycle
        topo = Topology()
        for provider, customer in [(1, 2), (2, 3), (3, 1), (3, 4)]:
            topo.add_edge(provider, customer, Relationship.P2C)
        with pytest.raises(PolicyError, match=r"cycle through edges 1-2, 2-3, 3-1$"):
            derive_vf_policies(topo)

    def test_provider_cycle_behind_acyclic_part(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2C)
        topo.add_edge(2, 3, Relationship.P2P)
        topo.add_edge(3, 4, Relationship.P2C)
        topo.add_edge(4, 5, Relationship.P2C)
        derive_vf_policies(topo)
        topo.add_edge(5, 3, Relationship.P2C)
        with pytest.raises(PolicyError, match=r"cycle through edges 3-4, 4-5, 5-3$"):
            derive_vf_policies(topo)

    def test_long_provider_cycle_needs_no_recursion(self):
        n = 5000
        topo = Topology()
        for i in range(n):
            topo.add_edge(i, (i + 1) % n, Relationship.P2C)
        with pytest.raises(PolicyError, match=f"{n - 1}-0$"):
            derive_vf_policies(topo)

    def test_peer_cycle_is_allowed(self):
        topo = Topology()
        for a, b in [(1, 2), (2, 3), (3, 1)]:
            topo.add_edge(a, b, Relationship.P2P)
        topo.add_edge(1, 4, Relationship.P2C)
        assert derive_vf_policies(topo).has_policies


class TestCaidaParser:
    def test_provider_customer_line(self):
        topo = parse_caida_asrel("1|2|-1\n")
        assert topo.relationship(1, 2) == Relationship.P2C
        assert topo.relationship(2, 1) == Relationship.C2P

    def test_peer_line(self):
        topo = parse_caida_asrel("1|2|0\n")
        assert topo.relationship(1, 2) == Relationship.P2P
        assert topo.relationship(2, 1) == Relationship.P2P

    def test_comments_and_blanks_skipped(self):
        topo = parse_caida_asrel("# serial-1\n\n10|20|-1\n")
        assert topo.num_edges == 1

    def test_bad_relationship_code_reports_line(self):
        with pytest.raises(TopologyParseError) as err:
            parse_caida_asrel("1|2|-1\n3|4|7\n")
        assert "line 2" in str(err.value)

    def test_malformed_line_reports_line(self):
        with pytest.raises(TopologyParseError) as err:
            parse_caida_asrel("1|2\n")
        assert "line 1" in str(err.value)

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_caida_asrel("1|2|-1\n2|1|-1\n")

    def test_counts_are_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="catchmap.topology"):
            parse_caida_asrel("1|2|-1\n1|3|0\n1|2|-1\n")
        assert caplog.messages == ["parsed 3 relationship lines: 3 nodes, 2 edges"]

    def test_same_rows_and_errors_as_reference(self):
        # same nodes, rows and relationship members, in the same key order at
        # both levels; where the reference refuses, the same error and line
        outcomes = Counter()
        for seed in range(600):
            text = _caida_text(random.Random(seed))
            try:
                want = helpers.reference_parse_caida_asrel(text)
            except TopologyParseError as exc:
                with pytest.raises(TopologyParseError, match=f"^{re.escape(str(exc))}$") as err:
                    parse_caida_asrel(text)
                assert type(err.value) is TopologyParseError
                assert err.value.line_no == exc.line_no
                outcomes[str(exc).split(": ", 1)[1].split(" ", 1)[0]] += 1
                continue
            got = parse_caida_asrel(text)
            assert list(got.nodes()) == list(want.nodes()), seed
            for node in want.nodes():
                row, want_row = got.relationships(node), want.relationships(node)
                assert list(row) == list(want_row), (seed, node)
                assert all(row[j] is rel for j, rel in want_row.items()), (seed, node)
            outcomes["parsed"] += 1
        # every kind of refusal occurs, and most texts parse through
        assert set(outcomes) == {
            "parsed", "expected", "non-integer", "unknown", "self-loop", "edge",
        }, outcomes
        assert outcomes["parsed"] >= 300, outcomes


def _caida_text(rng: random.Random) -> str:
    """Up to 60 relationship lines over 2-25 nodes: new pairs, repeats (a
    peering also read from its other end), now and then a conflicting
    repeat, comments, blank lines, a fourth field and loose spacing; about
    one text in three also holds a self-loop, a short line, a non-integer
    or an unknown code."""
    size = rng.randint(2, 25)
    pairs: dict[frozenset, tuple[int, int, str]] = {}
    lines = []
    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "   ", "# serial-1", "\t# note"]))
            continue
        if roll > 0.985:
            lines.append(rng.choice([f"{rng.randint(1, size)}|{rng.randint(1, size)}",
                                     "7|x|0", "3|4|2", "5|5|0", "1|2|+1"]))
            continue
        a, b = rng.sample(range(1, size + 2), 2)
        if roll < 0.3 or frozenset((a, b)) in pairs:
            if not pairs:
                continue
            a, b, code = rng.choice(list(pairs.values()))
            if code == "0" and rng.random() < 0.5:
                a, b = b, a
            if rng.random() < 0.02:
                a, b, code = rng.choice([(b, a, "-1"), (a, b, "0" if code == "-1" else "-1")])
        else:
            code = rng.choice(["-1", "0"])
            pairs[frozenset((a, b))] = (a, b, code)
        line = f"{a}|{b}|{code}"
        extra = rng.random()
        if extra < 0.1:
            line += "|bgp"
        elif extra < 0.2:
            line = f" {a} |{b}| {code}"
        elif extra < 0.3:
            line += "  # a comment"
        lines.append(line)
    return "\n".join(lines) + "\n"


# One comment rule for all four line formats. Per format: its parser, a view
# that compares two parses, a text whose lines end in comments, the same
# text without them, a text with a "#" inside a token, and what that text
# gives: the token kept in the parse, or a parse error that quotes it.
COMMENT_CASES = {
    "caida": (
        parse_caida_asrel, serialize_topology,
        "# serial-1\n1|2|-1  # provider first\n1|3|0\t# a peering\n",
        "1|2|-1\n1|3|0\n",
        "1|2|-1#x\n", "non-integer field in '1|2|-1#x'",
    ),
    "canonical": (
        parse_topology, serialize_topology,
        "node 5 # lone\n  # indented\nedge 1 2 p2c # note\n",
        "node 5\nedge 1 2 p2c\n",
        "edge 1 2 p2c#x\n", "unknown relationship 'p2c#x'",
    ),
    "scenario": (
        parse_scenario_file, attrgetter("attachments", "seed"),
        "attach 1 m1 # first\nseed 4\t# fixed\n",
        "attach 1 m1\nseed 4\n",
        "attach 1 m#x\nseed 4\n", ({1: "m#x"}, 4),
    ),
    "observations": (
        parse_oracle_file, dict,
        "4,m1 # traceroute\npath:8 6,m1,ping\t# looked\n",
        "4,m1\npath:8 6,m1,ping\n",
        "5,m#x\n", {5: "m#x"},
    ),
}
# Per format, a bad line that follows a comment line, a blank line and a
# good line with a comment: each error names line 4.
BAD_FOURTH_LINES = {
    "caida": "3|4|7", "canonical": "edge 3 4 q2q",
    "scenario": "frobnicate 5", "observations": "x,m1",
}
GOOD_LINES = {
    "caida": "1|2|-1", "canonical": "node 1", "scenario": "seed 1",
    "observations": "4,m1",
}


class TestCommentRule:
    @pytest.mark.parametrize("fmt", sorted(COMMENT_CASES))
    def test_trailing_comment_and_hash_inside_a_token(self, fmt):
        parse, view, commented, plain, hashed, kept = COMMENT_CASES[fmt]
        assert view(parse(commented)) == view(parse(plain))
        if isinstance(kept, str):
            with pytest.raises(TopologyParseError, match=f"^line 1: {re.escape(kept)}$"):
                parse(hashed)
        else:
            assert view(parse(hashed)) == kept

    @pytest.mark.parametrize("fmt", sorted(BAD_FOURTH_LINES))
    def test_bad_line_after_comments_reports_its_own_number(self, fmt):
        parse = COMMENT_CASES[fmt][0]
        text = f"# header\n\n{GOOD_LINES[fmt]}  # fine\n{BAD_FOURTH_LINES[fmt]}\n"
        with pytest.raises(TopologyParseError, match="^line 4: "):
            parse(text)

    def test_format_sniffer_reads_the_first_data_line(self):
        canonical = serialize_topology(helpers.example_base_topology())
        for header in ("# rows like 1|2|-1 follow\n", "node 1  # was 1|2|-1\n"):
            topo = parse_topology_text(header + canonical)
            assert serialize_topology(topo) == canonical, header
        topo = parse_topology_text("# canonical: node 1\n1|2|-1  # edge 1 2 p2c\n")
        assert topo.relationship(1, 2) == Relationship.P2C


class TestCanonicalFormat:
    def test_round_trip_example(self):
        topo = helpers.example_base_topology()
        text = serialize_topology(topo)
        back = parse_topology(text)
        assert sorted(back.nodes()) == sorted(topo.nodes())
        for i in topo.nodes():
            for j in topo.neighbors(i):
                assert back.relationship(i, j) == topo.relationship(i, j)

    def test_unset_edge_round_trips(self):
        text = "# topology v1\nnode 1\nnode 2\nnode 3\nedge 1 2 unset\nedge 2 3 p2c\n"
        topo = parse_topology(text)
        assert topo.relationship(1, 2) is None and topo.relationship(2, 1) is None
        assert topo.relationship(3, 2) is Relationship.C2P
        assert serialize_topology(topo) == text

    def test_unrecognized_line_reports_position(self):
        with pytest.raises(TopologyParseError) as err:
            parse_topology("# topology v1\nwhatever 1 2\n")
        assert "line 2" in str(err.value)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_round_trip_random(self, n, seed):
        topo = generate_random_topology(n, avg_degree=2.3, seed=seed)
        back = parse_topology(serialize_topology(topo))
        assert sorted(back.nodes()) == sorted(topo.nodes())
        assert back.num_edges == topo.num_edges
        for i in topo.nodes():
            for j in topo.neighbors(i):
                assert back.relationship(i, j) == topo.relationship(i, j)


class TestAttachDestination:
    def test_two_ingress_points(self):
        aug = helpers.example_aug()
        assert aug.n_dst == helpers.DST
        assert aug.ingress_map == {1: "m1", 2: "m2"}
        assert helpers.ingress_points(aug) == ("m1", "m2")
        # destination attaches as a customer of each neighbor by default
        assert aug.topology.relationship(aug.n_dst, 1) == Relationship.C2P
        assert aug.topology.relationship(aug.n_dst, 2) == Relationship.C2P

    def test_real_nodes_exclude_destination(self):
        aug = helpers.example_aug()
        assert aug.n_dst not in aug.real_nodes
        assert set(aug.real_nodes) == set(range(1, 9))

    def test_moas_origins_become_ingress_points(self):
        topo = Topology()
        topo.add_edge(10, 20, Relationship.P2P)
        vf = derive_vf_policies(topo)
        aug = attach_destination(vf, DestinationSpec(moas_origins=(10, 20)))
        assert set(aug.ingress_map) == {10, 20}
        assert sorted(aug.ingress_map.values()) == ["10", "20"]

    def test_empty_spec_rejected(self):
        with pytest.raises(DestinationSpecError):
            DestinationSpec()

    def test_unknown_attachment_rejected(self):
        topo = derive_vf_policies(Topology())
        with pytest.raises(UnknownNodeError):
            attach_destination(topo, DestinationSpec(attachments={5: "m1"}))

    def test_attachment_relationship_configurable(self):
        topo = Topology()
        topo.add_edge(1, 2, Relationship.P2P)
        vf = derive_vf_policies(topo)
        spec = DestinationSpec(
            attachments={1: "m1"},
            attachment_rels={1: Relationship.P2P},
        )
        aug = attach_destination(vf, spec)
        assert aug.topology.relationship(aug.n_dst, 1) == Relationship.P2P


class TestPrepending:
    def test_zero_prepends_is_identity(self, example_aug):
        assert apply_prepending(example_aug, "m2", 0) is example_aug

    def test_chain_inserted_before_ingress(self, example_aug):
        aug = apply_prepending(example_aug, "m2", 2)
        assert len(aug.virtual_nodes) == 2
        v1, v2 = aug.virtual_nodes
        # destination -> v1 -> v2 -> original neighbor
        assert aug.topology.relationship(aug.n_dst, v1) == Relationship.C2P
        assert aug.topology.relationship(v1, v2) == Relationship.C2P
        assert aug.topology.relationship(v2, 2) == Relationship.C2P
        assert aug.ingress_map[v1] == "m2"
        assert 2 not in aug.ingress_map

    def test_unknown_ingress_rejected(self, example_aug):
        with pytest.raises(UnknownNodeError):
            apply_prepending(example_aug, "nope", 1)

    def test_forwarding_edges_on_original_nodes_unchanged(self, example_aug):
        base = build_rgraph(example_aug)
        prepped = build_rgraph(apply_prepending(example_aug, "m2", 3))
        original = set(example_aug.real_nodes)
        base_edges = {
            (p, c) for p, c in base.edges() if p in original and c in original
        }
        prep_edges = {
            (p, c) for p, c in prepped.edges() if p in original and c in original
        }
        assert base_edges == prep_edges


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = generate_random_topology(8, seed=7)
        b = generate_random_topology(8, seed=7)
        assert serialize_topology(a) == serialize_topology(b)

    def test_edge_count_tracks_requested_degree(self):
        topo = generate_random_topology(50, avg_degree=3.0, seed=1)
        target = round(50 * 3.0 / 2)
        assert 49 <= topo.num_edges <= target

    def test_single_node(self):
        topo = generate_random_topology(1, seed=0)
        assert sorted(topo.nodes()) == [1]
        assert topo.num_edges == 0

    @pytest.mark.parametrize("n, needed", [(2, 2), (3, 4)])
    def test_small_graphs_take_the_default_degree(self, n, needed):
        # without avg_degree the degree is n - 1: one edge, then a triangle
        for seed in range(5):
            topo = generate_random_topology(n, seed=seed)
            assert sorted(topo.nodes()) == list(range(1, n + 1))
            assert topo.num_edges == n * (n - 1) // 2
            same = generate_random_topology(n, avg_degree=n - 1, seed=seed)
            assert serialize_topology(topo) == serialize_topology(same)
        # an explicit degree the nodes cannot hold still fails
        with pytest.raises(GenerationError, match=f"^avg_degree 2.5 needs {needed} edges"):
            generate_random_topology(n, avg_degree=2.5, seed=0)
        aug = build_augmented(parse_scenario_file(f"topology generate n={n}\nattach 1 m1\n"))
        assert aug.topology.num_edges == n * (n - 1) // 2 + 1

    @pytest.mark.parametrize("n", [4, 5, 13, 200])
    def test_default_degree_from_four_nodes_is_unchanged(self, n):
        for seed in range(3):
            got = generate_random_topology(n, seed=seed)
            assert _state(got) == _state(helpers.reference_generate_random_topology(n, seed=seed))

    def test_impossible_density_rejected(self):
        with pytest.raises(GenerationError):
            generate_random_topology(4, avg_degree=40.0, seed=0)

    def test_generation_facts_are_logged(self, caplog):
        # 12 spanning-tree edges, then 40 of 78 sampled pairs were new
        with caplog.at_level(logging.DEBUG, logger="catchmap.topology"):
            generate_random_topology(13, avg_degree=8, seed=0)
        assert caplog.messages == [
            "generated 13 nodes, 52 edges: 78 sample draws, 38 duplicate draws"
        ]

    @pytest.mark.parametrize("degree", [float("nan"), float("inf")])
    def test_non_finite_degree_rejected(self, degree):
        with pytest.raises(GenerationError, match=f"avg_degree must be finite, got {degree}"):
            generate_random_topology(10, avg_degree=degree, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 13, 200, 10_000])
    def test_same_adjacency_as_reference(self, n):
        # same nodes, rows and relationships, in the same key order at both
        # levels; where the reference refuses, the same error
        for seed, peers, degree in itertools.product(range(5), (0, 0.15, 1), (2.5, 4, 8)):
            kwargs = {"avg_degree": degree, "peer_fraction": peers, "seed": seed}
            try:
                want = helpers.reference_generate_random_topology(n, **kwargs)
            except GenerationError as exc:
                with pytest.raises(GenerationError, match=f"^{re.escape(str(exc))}$"):
                    generate_random_topology(n, **kwargs)
                continue
            got = generate_random_topology(n, **kwargs)
            assert list(got.nodes()) == list(want.nodes()), kwargs
            rows = [got.relationships(node) for node in got.nodes()]
            want_rows = [want.relationships(node) for node in want.nodes()]
            assert rows == want_rows, kwargs
            assert [list(r) for r in rows] == [list(r) for r in want_rows], kwargs
            assert got.has_policies == want.has_policies

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=2**20),
        peers=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_generated_topologies_satisfy_invariants(self, n, seed, peers):
        topo = generate_random_topology(
            n, avg_degree=2.5, peer_fraction=peers, seed=seed
        )
        vf = derive_vf_policies(topo)
        helpers.assert_antisymmetric(vf)
        assert vf.num_nodes == n
        assert vf.num_edges >= n - 1  # spanning structure
