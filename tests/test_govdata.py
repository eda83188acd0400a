"""Ingestion, final-ballot resolution, winner rule and validation."""

from __future__ import annotations

import csv
import sys
import tracemalloc
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DAY0, addr, make_log, make_poll, write_factors_csv, write_polls_csv, write_votes_csv
from govpulse import govdata
from govpulse.centrality import ballot_pass
from govpulse.govdata import (
    FACTORS_HEADER,
    IDENTITIES_HEADER,
    POLLS_HEADER,
    VOTES_HEADER,
    SchemaError,
    VoteEvent,
    final_ballots,
    load_factors,
    load_vote_log,
    parse_timestamp,
    validate_dataset,
    write_vote_log,
)
from oracles import (
    exact_sum_oracle,
    final_ballots_oracle,
    load_factors_oracle,
    load_vote_events_oracle,
    validate_dataset_oracle,
    write_votes_oracle,
)


def test_empty_votes_file_with_valid_header(tmp_path):
    write_votes_csv(tmp_path / "votes.csv", [])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes|2:no", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert len(log.events) == 0
    assert len(log.registry) == 1


def test_unknown_poll_row_is_skipped_with_anomaly(tmp_path):
    rows = [
        (1, addr(1), 1, "5", DAY0 + 10),
        (1, addr(2), 1, "3", DAY0 + 20),
        (1, addr(3), 2, "2", DAY0 + 30),
        (999, addr(4), 1, "9", DAY0 + 40),
    ]
    write_votes_csv(tmp_path / "votes.csv", rows)
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes|2:no", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert len(log.events) == 3
    kinds = log.report.counts_by_kind()
    assert kinds.get("unknown poll") == 1


def test_vote_log_rejects_event_of_unregistered_poll():
    with pytest.raises(ValueError, match=r"not in the registry: \[2\]"):
        make_log([(1, addr(1), 1, "5", DAY0 + 10), (2, addr(2), 1, "5", DAY0 + 20)], [make_poll(1, DAY0)])


def test_ingestion_is_lossless_modulo_anomalies(tmp_path):
    rows = [
        (1, addr(1), 1, "5", DAY0 + 10),
        (1, addr(2), 1, "not-a-number", DAY0 + 20),
        (999, addr(3), 1, "2", DAY0 + 30),
        (1, addr(4), 2, "2", DAY0 + 40),
    ]
    write_votes_csv(tmp_path / "votes.csv", rows)
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes|2:no", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert len(log.events) + len(log.report.anomalies) == len(rows)


def test_missing_file_raises(tmp_path):
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    with pytest.raises(FileNotFoundError):
        load_vote_log(tmp_path / "nope.csv", tmp_path / "polls.csv")


def test_malformed_header_raises(tmp_path):
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    for header in ("a,b,c", "poll_id,voter," + "x" * 131073):  # the second is over the reader's field limit
        (tmp_path / "votes.csv").write_text(f"{header}\n1,2,3\n")
        with pytest.raises(SchemaError):
            load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")


def test_identities_are_normalized_and_joined(tmp_path):
    write_votes_csv(tmp_path / "votes.csv", [(1, addr(1).upper().replace("0X", "0x"), 1, "5", DAY0 + 10)])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    (tmp_path / "ids.csv").write_text(f"address,name\n{addr(1).upper()},Whale One\n")
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "ids.csv")
    assert log.events[0].voter == addr(1)
    assert log.identities[addr(1)] == "Whale One"


def test_iso_timestamps_accepted(tmp_path):
    write_votes_csv(tmp_path / "votes.csv", [(1, addr(1), 1, "5", "2021-03-01T00:01:40Z")])
    write_polls_csv(tmp_path / "polls.csv", [(1, "2021-03-01T00:00:00Z", "p", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert log.events[0].timestamp == DAY0 + 100
    assert log.registry[1].deploy_timestamp == DAY0


def test_parse_timestamp_forms():
    assert parse_timestamp("100") == 100
    assert parse_timestamp("100.0") == 100
    assert parse_timestamp("1970-01-01T00:02:00+00:00") == 120


def _ballots(log, poll_id, rule="last"):
    """The poll's final ballots as ``VoteEvent``s."""
    return [log.events[row] for row in final_ballots(log, poll_id, rule)]


def _order(log, ballot_rule="last", order_rule="last"):
    """The order measure of the log's only measured poll."""
    (pm,) = ballot_pass(log, ballot_rule=ballot_rule, order_rule=order_rule).polls
    return pm.order


def test_final_ballot_last_event_counts():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(1), 2, "5", DAY0 + 500)],
        [make_poll(1, DAY0)],
    )
    ballots = _ballots(log, 1)
    assert len(ballots) == 1
    b = ballots[0]
    assert (b.option_id, b.weight, b.timestamp) == (2, Decimal("5"), DAY0 + 500)
    assert _order(log, order_rule="last") == 2 / 2  # the counted record
    assert _order(log, order_rule="first") == 1 / 2  # the voter's first record


def test_final_ballot_first_rule():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(1), 2, "5", DAY0 + 500)],
        [make_poll(1, DAY0)],
    )
    b = _ballots(log, 1, rule="first")[0]
    assert (b.option_id, b.timestamp) == (1, DAY0 + 100)
    assert _order(log, ballot_rule="first") == 1 / 2


def test_final_ballots_two_voters_indices():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(2), 2, "3", DAY0 + 200)],
        [make_poll(1, DAY0)],
    )
    ballots = _ballots(log, 1)
    assert [b.timestamp for b in ballots] == [DAY0 + 100, DAY0 + 200]
    assert _order(log) == 1 / 2


def test_final_ballots_empty_poll():
    log = make_log([], [make_poll(1, DAY0)])
    assert final_ballots(log, 1).tolist() == []


def test_final_ballots_sorted_by_weight_then_time():
    log = make_log(
        [
            (1, addr(1), 1, "5", DAY0 + 300),
            (1, addr(2), 1, "9", DAY0 + 100),
            (1, addr(3), 2, "5", DAY0 + 200),
        ],
        [make_poll(1, DAY0)],
    )
    ballots = _ballots(log, 1)
    assert [b.voter for b in ballots] == [addr(2), addr(3), addr(1)]


def test_final_ballots_sort_weights_that_differ_past_28_digits():
    heavy, light = "123456789012.123456789012345679", "123456789012.123456789012345678"
    log = make_log(
        [(1, addr(1), 1, light, DAY0 + 10), (1, addr(2), 2, heavy, DAY0 + 20)],
        [make_poll(1, DAY0)],
    )
    assert [str(b.weight) for b in _ballots(log, 1)] == [heavy, light]
    (pm,) = ballot_pass(log).polls
    assert (str(pm.largest_votes), pm.ifwin, pm.order) == (heavy, 1, 2 / 2)


# equal values with different exponents, and values one float apart or that
# differ only past the 28th digit
BALLOT_WEIGHTS = st.one_of(
    st.sampled_from([
        "0", "0.0", "0E-5", "1", "1.0", "1.00", "1E+1", "10", "10.0",
        "123456789012.123456789012345679", "123456789012.123456789012345678", "123456789012.12345678901234568",
    ]),
    st.integers(0, 10**6).map(lambda i: str(Decimal(i).scaleb(-3))),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 3), BALLOT_WEIGHTS, st.integers(0, 3)),
        max_size=30,
    ),
    rule=st.sampled_from(["last", "first"]),
)
@example(rows=[
    (1, 1, "123456789012.123456789012345678", 0), (2, 1, "123456789012.123456789012345679", 1),
    (3, 2, "1.0", 2), (4, 2, "1", 1), (6, 1, "5", 3), (5, 1, "5.00", 3),
], rule="last")
def test_final_ballots_keep_the_one_key_order(rows, rule):
    """Two stable sorts give the order of the single exact key they replace:
    weight descending, then timestamp, then address."""
    log = make_log(
        [(1, addr(voter), option, weight, DAY0 + offset) for voter, option, weight, offset in rows],
        [make_poll(1, DAY0)],
    )
    got, want = _ballots(log, 1, rule), final_ballots_oracle(log, 1, rule)
    assert got == want
    assert [str(b.weight) for b in got] == [str(b.weight) for b in want]


def test_equal_timestamp_permutation_keeps_weights(simple_log):
    events = [
        (1, addr(1), 1, "60", DAY0 + 100),
        (1, addr(2), 2, "40", DAY0 + 100),
        (1, addr(3), 1, "7", DAY0 + 100),
    ]
    log_a = make_log(events, [make_poll(1, DAY0)])
    log_b = make_log(list(reversed(events)), [make_poll(1, DAY0)])
    weights_a = sorted((b.voter, b.weight) for b in _ballots(log_a, 1))
    weights_b = sorted((b.voter, b.weight) for b in _ballots(log_b, 1))
    assert weights_a == weights_b


def test_revisions_never_add_weight(simple_log):
    for poll_id in simple_log.poll_ids():
        raw = sum((e.weight for e in simple_log.poll_events(poll_id)), Decimal(0))
        final = sum((b.weight for b in _ballots(simple_log, poll_id)), Decimal(0))
        assert final <= raw


def _ifwin(log):
    """Whether the largest voter of the log's only measured poll backs the winner."""
    (pm,) = ballot_pass(log).polls
    return pm.ifwin


def test_winning_option_majority():
    log = make_log(
        [(1, addr(1), 1, "60", DAY0 + 10), (1, addr(2), 2, "40", DAY0 + 20)],
        [make_poll(1, DAY0)],
    )
    assert _ifwin(log) == 1


def test_winning_option_single_voter():
    log = make_log([(1, addr(1), 3, "1", DAY0 + 10)], [make_poll(1, DAY0)])
    assert _ifwin(log) == 1


def test_winning_option_tie_flag():
    log = make_log(
        [(1, addr(1), 2, "50", DAY0 + 10), (1, addr(2), 1, "50", DAY0 + 20)],
        [make_poll(1, DAY0)],
    )
    # the largest voter (earliest of the tied) backs option 2; the tie goes to the smallest id
    assert _ifwin(log) == 0


def test_poll_without_votes_has_no_winner_row():
    assert ballot_pass(make_log([], [make_poll(1, DAY0)])).polls == []


def test_validate_clean_log(simple_log):
    report = validate_dataset(simple_log)
    assert report.anomalies == []
    assert (len(simple_log.events), len(simple_log.registry), len(simple_log.voters())) == (6, 2, 3)


def test_validate_pre_deploy_warning():
    log = make_log([(1, addr(1), 1, "5", DAY0 - 50)], [make_poll(1, DAY0)])
    report = validate_dataset(log)
    assert report.counts_by_kind().get("pre-deploy vote") == 1


def test_validate_flags_unlisted_option():
    polls = [make_poll(1, DAY0, options=2), make_poll(2, DAY0, options=0)]
    events = [
        (1, addr(1), 2, "5", DAY0 + 10),
        (1, addr(2), 3, "5", DAY0 + 20),
        (2, addr(1), 7, "5", DAY0 + 30),  # poll 2 lists no options
    ]
    report = validate_dataset(make_log(events, polls))
    assert [(a.kind, a.detail) for a in report.anomalies] == [
        ("unknown option", f"poll 1, voter {addr(2)}: option 3 not listed")
    ]


def test_validate_zero_weight_warning():
    log = make_log([(1, addr(1), 1, "0", DAY0 + 50)], [make_poll(1, DAY0)])
    report = validate_dataset(log)
    assert report.counts_by_kind().get("zero weight") == 1


# Logs on which every check of the scan fires: polls that list no options
# and options outside a poll's list, votes before a deploy time, zero
# weights written in several forms, and (poll, voter, timestamp) keys that
# repeat, since few timestamps are drawn.
@st.composite
def scanned_logs(draw):
    polls = [make_poll(poll_id, DAY0 + 100 * draw(st.integers(0, 2)), options=draw(st.sampled_from([0, 2, 3])),
                       abstain=tuple(draw(st.lists(st.integers(1, 4), max_size=2))))
             for poll_id in (1, 2, 3)]
    rows = draw(st.lists(st.tuples(
        st.integers(1, 3), st.sampled_from([addr(1), addr(2), addr(3)]), st.integers(1, 4),
        st.sampled_from(["0", "0.00", "0E-7", "1", "1.0", "2.5"]),
        st.sampled_from([DAY0 + 50, DAY0 + 100, DAY0 + 150, DAY0 + 250]),
    ), max_size=30))
    return make_log(rows, polls)


@settings(max_examples=200, deadline=None)
@given(log=scanned_logs())
def test_validate_dataset_matches_the_event_scan(log):
    assert validate_dataset(log).anomalies == validate_dataset_oracle(log).anomalies


# addresses that votes.csv must quote, or carry as they are, and weights
# whose text is not the text they were written in
WRITTEN_ADDRESSES = ["0xa", "0x,b", '0x"c"', "0x\rd", "0x\ne", "0x\r\nf", "0xé", " 0x g ", ""]
WRITTEN_WEIGHTS = ["1", "1.0", "0.7E+1", "1E+2", "0E-7", "1.5E-7", "0.000", "123456789012.123456789012345678"]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
    st.integers(1, 2), st.sampled_from(WRITTEN_ADDRESSES), st.integers(1, 3), st.sampled_from(WRITTEN_WEIGHTS),
    st.integers(DAY0, DAY0 + 5),
), max_size=20))
@example(rows=[])
def test_votes_are_written_as_the_event_writer_writes_them(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("written")
    log = make_log(rows, [make_poll(1, DAY0), make_poll(2, DAY0)])
    write_vote_log(log, tmp / "votes.csv", tmp / "polls.csv")
    write_votes_oracle(log, tmp / "oracle.csv")
    assert (tmp / "votes.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()


def test_votes_are_written_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(govdata, "VOTE_WRITE_ROWS", 7)
    rows = [(1 + i % 2, WRITTEN_ADDRESSES[i % 9], 1 + i % 3, WRITTEN_WEIGHTS[i % 8], DAY0 + i % 13) for i in range(50)]
    log = make_log(rows, [make_poll(1, DAY0), make_poll(2, DAY0)])
    write_vote_log(log, tmp_path / "votes.csv", tmp_path / "polls.csv")
    write_votes_oracle(log, tmp_path / "oracle.csv")
    assert (tmp_path / "votes.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_round_trip_identity(tmp_path, simple_log):
    write_vote_log(simple_log, tmp_path / "v.csv", tmp_path / "p.csv", tmp_path / "i.csv")
    again = load_vote_log(tmp_path / "v.csv", tmp_path / "p.csv", tmp_path / "i.csv")
    assert again.events == simple_log.events
    assert again.registry == simple_log.registry
    assert again.identities == simple_log.identities


def test_load_factors_basic(tmp_path):
    rows = [
        ("2021-03-01", "MKR", "financial", "Price", "100.5"),
        ("2021-03-02", "MKR", "financial", "Price", "101.5"),
    ]
    path = tmp_path / "factors.csv"
    import csv as _csv

    with path.open("w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["date", "token", "category", "factor", "value"])
        writer.writerows(rows)
    panel = load_factors(path)
    assert len(panel) == 2


def test_load_factors_same_factor_multiple_tokens(tmp_path):
    rows = [
        ("2021-03-01", "MKR", "financial", "Price", "1"),
        ("2021-03-01", "DAI", "financial", "Price", "2"),
        ("2021-03-01", "ETH", "financial", "Price", "3"),
    ]
    path = tmp_path / "factors.csv"
    import csv as _csv

    with path.open("w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["date", "token", "category", "factor", "value"])
        writer.writerows(rows)
    panel = load_factors(path)
    assert len(panel) == 3


def test_load_factors_duplicate_last_wins(tmp_path):
    rows = [
        ("2021-03-01", "MKR", "financial", "Price", "5"),
        ("2021-03-01", "MKR", "financial", "Price", "7"),
    ]
    path = tmp_path / "factors.csv"
    import csv as _csv

    with path.open("w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["date", "token", "category", "factor", "value"])
        writer.writerows(rows)
    panel = load_factors(path)
    from datetime import date

    assert panel.series[("MKR", "financial", "Price")] == {date(2021, 3, 1): 7.0}
    assert sum(1 for a in panel.anomalies if a.kind == "duplicate factor cell") == 1


def test_load_factors_unknown_name_kept_flagged(tmp_path):
    path = tmp_path / "factors.csv"
    import csv as _csv

    with path.open("w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["date", "token", "category", "factor", "value"])
        writer.writerow(["2021-03-01", "MKR", "financial", "Bogus", "5"])
        writer.writerow(["not-a-date", "MKR", "financial", "Price", "5"])
    panel = load_factors(path)
    assert len(panel) == 1  # bogus factor kept, bad date skipped
    kinds = {a.kind for a in panel.anomalies}
    assert "unknown factor" in kinds
    assert "bad factor date" in kinds


@pytest.mark.parametrize("text", ["20210301", "2021-W09-2", "2021-3-1", "2021-03-01T00:00"])
def test_factor_dates_take_only_the_iso_calendar_form(tmp_path, text):
    path = tmp_path / "factors.csv"
    write_factors_csv(path, [(text, "MKR", "financial", "Price", "5"), ("2021-03-02", "MKR", "financial", "Price", "6")])
    panel = load_factors(path)
    assert len(panel) == 1
    assert [a.kind for a in panel.anomalies] == ["bad factor date"]


def test_repeated_factor_faults_give_one_anomaly_per_line(tmp_path):
    path = tmp_path / "factors.csv"
    write_factors_csv(path, [
        ("2021-03-01", "MKR", "financial", "Price", "5"),
        ("2021-3-2", "MKR", "financial", "Price", "6"),
        ("2021-03-01", "MKR", "financial", "Bogus", "1"),
        ("2021-03-01", "MKR", "financial", "Price", "7"),
        ("2021-3-2", "DAI", "network", "New", "2"),
        ("2021-03-02", "MKR", "financial", "Bogus", "2"),
        ("2021-03-01", "MKR", "financial", "Price", "8"),
        ("2021-3-2", "MKR", "financial", "Bogus", "3"),
        ("2021-03-01", "MKR", "financial", "Bogus", "4"),
    ])
    panel = load_factors(path)
    # a date string and a factor key are each checked once per file, but
    # every line that repeats a fault still gets its own anomaly
    price = "2021-03-01/MKR/financial/Price: last value wins"
    assert [(a.kind, a.detail) for a in panel.anomalies] == [
        ("bad factor date", "line 3: '2021-3-2'"),
        ("unknown factor", "line 4: MKR/Bogus kept, flagged"),
        ("duplicate factor cell", price),
        ("bad factor date", "line 6: '2021-3-2'"),
        ("unknown factor", "line 7: MKR/Bogus kept, flagged"),
        ("duplicate factor cell", price),
        ("bad factor date", "line 9: '2021-3-2'"),
        ("unknown factor", "line 10: MKR/Bogus kept, flagged"),
        ("duplicate factor cell", "2021-03-01/MKR/financial/Bogus: last value wins"),
    ]
    assert panel.series == {
        ("MKR", "financial", "Price"): {date(2021, 3, 1): 8.0},
        ("MKR", "financial", "Bogus"): {date(2021, 3, 1): 4.0, date(2021, 3, 2): 2.0},
    }


@pytest.mark.parametrize("tokens", [("MKR", "DAI"), ("DAI", "MKR")])
def test_instrument_is_one_series_whatever_the_token(tmp_path, tokens):
    from datetime import date

    path = tmp_path / "factors.csv"
    write_factors_csv(path, [
        ("2021-03-01", tokens[0], "instrument", "offchain_voters", "2.0"),
        ("2021-03-01", tokens[1], "instrument", "offchain_voters", "9.0"),
        ("2021-03-02", "ALL", "instrument", "onchain_voters", "4.0"),
    ])
    panel = load_factors(path)
    assert panel.instrument == {date(2021, 3, 1): 9.0}
    assert not panel.series
    assert [a.kind for a in panel.anomalies] == ["duplicate factor cell", "unknown factor"]


def test_short_vote_row_is_anomaly_not_crash(tmp_path):
    (tmp_path / "votes.csv").write_text(
        "poll_id,voter,option_id,weight,timestamp\n1,0xab\n1,0xcd,1,5,1614556800\n"
    )
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert len(log.events) == 1
    assert log.report.counts_by_kind().get("bad vote row") == 1


def test_non_finite_factor_value_skipped(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text(
        "date,token,category,factor,value\n"
        "2021-03-01,MKR,financial,Price,nan\n"
        "2021-03-02,MKR,financial,Price,inf\n"
        "2021-03-03,MKR,financial,Price,101.5\n"
    )
    panel = load_factors(path)
    assert len(panel) == 1
    assert sum(1 for a in panel.anomalies if a.kind == "bad factor value") == 2


def test_anomaly_line_numbers_are_physical_lines(tmp_path):
    (tmp_path / "polls.csv").write_text(
        "poll_id,deploy_timestamp,title,options,abstain_options\n"
        '1,1614556800,"a title over\ntwo lines",1:yes|2:no,\n'
        "\n"
        "x,1614556800,bad poll,1:yes,\n"
    )
    (tmp_path / "votes.csv").write_text(
        "poll_id,voter,option_id,weight,timestamp\n"
        "1,0xa,1,5,1614556900\n"
        "\n"
        "\n"
        "1,0xb,1,5,not a time\n"
    )
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    details = [(a.kind, a.detail.split(":")[0]) for a in log.report.anomalies]
    assert details == [("bad poll row", "line 5"), ("bad vote row", "line 5")]


def test_bad_weight_detail_quotes_the_weight(tmp_path):
    write_votes_csv(tmp_path / "votes.csv", [(1, "0xa", 1, "12abc", DAY0 + 10)])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert [a.detail for a in log.report.anomalies] == ["line 2: weight '12abc' is not a decimal number"]


def test_repeated_bad_weight_gives_one_anomaly_per_line(tmp_path):
    write_votes_csv(tmp_path / "votes.csv", [
        (1, "0xa", 1, "12abc", DAY0 + 10),
        (1, "0xb", 1, "5", DAY0 + 20),
        (1, "0xc", 1, "12abc", DAY0 + 30),
        (1, "0xd", 1, "12abc", DAY0 + 40),
    ])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    # the weight text is parsed once, but every line that carries it is skipped
    bad = "weight '12abc' is not a decimal number"
    assert [(a.kind, a.detail) for a in log.report.anomalies] == [
        ("bad vote row", f"line 2: {bad}"),
        ("bad vote row", f"line 4: {bad}"),
        ("bad vote row", f"line 5: {bad}"),
    ]
    assert [e.voter for e in log.events] == ["0xb"]


def test_equal_weight_texts_share_one_decimal(tmp_path):
    write_votes_csv(tmp_path / "votes.csv", [
        (1, "0xA", 1, "1.0", DAY0 + 10),
        (1, " 0xa ", 1, "1", DAY0 + 20),
        (1, "0xb", 1, "1.0", DAY0 + 30),
        (1, "0xA", 1, "1", DAY0 + 40),
    ])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    first, second, third, fourth = log.events
    assert first.weight is third.weight and second.weight is fourth.weight
    assert first.weight == second.weight and first.weight is not second.weight
    assert [str(e.weight) for e in log.events] == ["1.0", "1", "1.0", "1"]
    assert first.voter is fourth.voter and first.voter == second.voter == "0xa"
    write_vote_log(log, tmp_path / "again.csv", tmp_path / "polls_again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "votes.csv").read_bytes().replace(
        b"0xA", b"0xa").replace(b" 0xa ", b"0xa")


# the texts of each field; each example draws a small pool of them, so texts
# repeat across rows: weights that are one value with different exponents or
# differ past the 28th digit, weights each check rejects, padded and
# mixed-case addresses
FIELD_TEXTS = (
    ["1", "2", "99", "x"],
    ["0xAb", "0xab", " 0xab ", "0xCD", "0xcd\t", "", "  "],
    ["1", "2", "z"],
    [
        "1", "1.0", "1E+2", "100", "7", " 7 ", "0", "-0", "0.5",
        "123456789012.123456789012345679", "123456789012.123456789012345678",
        "12abc", "NaN", "sNaN", "Infinity", "-Infinity", "1E+400", "1E-1001", "-3", "", " ",
    ],
    [str(DAY0 + 10), str(DAY0 + 20), "2021-03-01T00:00:20Z", "0", "-5", "not a time"],
)


@st.composite
def vote_rows(draw):
    pools = [draw(st.lists(st.sampled_from(texts), min_size=1, max_size=4, unique=True)) for texts in FIELD_TEXTS]
    return draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=40))


@settings(max_examples=100, deadline=None)
@given(rows=vote_rows())
@example(rows=[("1", "0xab", "1", "12abc", str(DAY0 + 10))] * 3)
@example(rows=[
    ("1", voter, "1", weight, str(DAY0 + 10))
    for voter, weight in (("0xCD", " 7 "), ("0xab", "7"), (" 0xAB", " "), ("0xcd", ""), ("0xab", " 7 "))
])
def test_interned_load_matches_the_per_row_loader(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("load")
    write_votes_csv(tmp / "votes.csv", rows)
    write_polls_csv(tmp / "polls.csv", [(1, DAY0, "p", "1:yes|2:no", ""), (2, DAY0, "q", "1:yes", "")])
    log = load_vote_log(tmp / "votes.csv", tmp / "polls.csv")
    events, anomalies = load_vote_events_oracle(tmp / "votes.csv", tmp / "polls.csv")
    assert list(log.events) == events
    assert [str(e.weight) for e in log.events] == [str(e.weight) for e in events]
    assert log.report.anomalies == anomalies


# the texts of each factors.csv field; each example draws a small pool of
# them, so raw texts repeat: padded and unpadded keys that strip to one,
# unknown categories, unknown factors under instrument (skipped) and
# elsewhere (kept and flagged), bad dates and bad or non-finite values
FACTOR_FIELD_TEXTS = (
    ["2021-03-01", "2021-03-02", " 2021-03-01 ", "2021-3-1", "20210301", "bad", ""],
    ["MKR", " MKR", "MKR ", "DAI", "ALL", "FOO", ""],
    ["financial", " financial", "transaction", "network", "instrument", " instrument", "bogus", ""],
    ["Price", " Price", "TxnCnt", "VolMkr", "VolDai", "offchain_voters", "onchain_voters", "Nope"],
    ["1.5", " 2 ", "-3", "0", "1e308", "nan", "inf", "-inf", "1e400", "abc", ""],
)


@st.composite
def factor_rows_drawn(draw):
    pools = [draw(st.lists(st.sampled_from(texts), min_size=1, max_size=4, unique=True))
             for texts in FACTOR_FIELD_TEXTS]
    return draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=40))


@settings(max_examples=150, deadline=None)
@given(rows=factor_rows_drawn())
@example(rows=[("2021-03-01", " MKR", "financial", "Price", "1"), ("2021-03-01", "MKR", "financial", "Price", "2"),
               ("2021-03-01", "MKR ", " financial", " Price", "3")])
@example(rows=[("2021-03-01", "FOO", "instrument", "onchain_voters", "1")] * 2
         + [("2021-03-01", token, " instrument", "offchain_voters", "2") for token in ("MKR", "ALL", "MKR")])
@example(rows=[("2021-03-01", "MKR", category, "Nope", "1") for category in ("bogus", "network", "bogus", "network")])
def test_keyed_factor_load_matches_the_per_row_loader(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("factors") / "factors.csv"
    write_factors_csv(path, rows)
    panel, oracle = load_factors(path), load_factors_oracle(path)
    assert panel.series == oracle.series
    assert list(panel.series) == list(oracle.series)
    assert panel.instrument == oracle.instrument
    assert panel.anomalies == oracle.anomalies
    assert len(panel) == len(oracle)


# input -> (header, a clean line, a line template whose {} takes the unreadable text,
#           another clean line, the kind of a bad row)
UNREADABLE_IN = {
    "votes": (VOTES_HEADER, "1,0xa,1,5,1614556900", "1,0x{},1,5,1614556900", "1,0xb,1,7,1614556900", "bad vote row"),
    "polls": (POLLS_HEADER, "1,1614556800,one,1:yes,", "2,1614556800,{},1:yes,", "3,1614556800,three,1:yes,",
              "bad poll row"),
    "identities": (IDENTITIES_HEADER, "0xa,alice", "0xc,{}", "0xd,dora", "bad identity row"),
    "factors": (FACTORS_HEADER, "2021-03-01,MKR,network,New,1", "2021-03-02,MKR,network,New,{}",
                "2021-03-03,MKR,network,New,3", "bad factor row"),
}


@pytest.mark.parametrize("junk, reason", [
    (b"x" * 131073, "field larger than field limit (131072)"),
    (b"caf\xff", "a byte that is not UTF-8"),
], ids=["oversized_field", "undecodable_byte"])
@pytest.mark.parametrize("source", list(UNREADABLE_IN))
def test_unreadable_line_is_a_bad_row(tmp_path, source, junk, reason):
    header, first, bad, last, kind = UNREADABLE_IN[source]
    paths = {name: tmp_path / f"{name}.csv" for name in UNREADABLE_IN}
    for name, (head, clean, _, _, _) in UNREADABLE_IN.items():
        lines = [",".join(head).encode(), clean.encode()]
        if name == source:
            lines += [bad.encode().replace(b"{}", junk), last.encode()]
        paths[name].write_bytes(b"\n".join(lines) + b"\n")
    if source == "factors":
        panel = load_factors(paths["factors"])
        anomalies, kept = panel.anomalies, len(panel)
    else:
        log = load_vote_log(paths["votes"], paths["polls"], paths["identities"])
        anomalies = log.report.anomalies
        kept = {"votes": len(log.events), "polls": len(log.registry), "identities": len(log.identities)}[source]
    assert [(a.kind, a.detail) for a in anomalies] == [(kind, f"line 3: {reason}")]
    assert kept == 2


def _vote_rows_equal(got, want) -> None:
    """Two readers' rows: the same kept rows (each weight's text too), in the
    same order, and the same anomalies in the same order."""
    def rows(columns):
        return list(zip(
            columns.poll_id.tolist(), [columns.addresses[i] for i in columns.voter.tolist()],
            columns.option_id.tolist(), [str(columns.weights.decimals[i]) for i in columns.weight.tolist()],
            columns.timestamp.tolist(),
        ))
    assert rows(got.columns()) == rows(want.columns())
    assert got.anomalies == want.anomalies


# texts of each votes.csv field, valid and not, including those Python's int
# reads and the fast path leaves to the per-row parse (" 7", "+7", "7_0")
READER_FIELDS = (
    ["1", "2", "3", "01", " 1", "+1", "1_0", "-1", "x", "", "99999999999999999999"],
    ["0xA", " 0xa ", "0xb", "0xC\t", "", "  "],
    ["1", "2", " 2", "+2", "-3", "", "1e2", "9223372036854775808", "99999999999999999999"],
    ["1", "1.0", "7", "0.7E+1", " 7", "7_0", "-1", "-0", "NaN", "x", "", "1E-1001", "1e400"],
    [str(DAY0 + 10), str(DAY0 + 20), "0", "1614556800.5", "2021-03-01T00:00:20Z", " 1614556810", "",
     "+1614556810", "99999999999999999999", "9999999999999999"],
)
READER_LINE = st.one_of(
    st.lists(st.integers(0, 12), min_size=5, max_size=5).map(
        lambda picks: ",".join(texts[i % len(texts)] for texts, i in zip(READER_FIELDS, picks))),
    st.lists(st.sampled_from([t for texts in READER_FIELDS for t in texts]), max_size=7).map(",".join),
    st.sampled_from(["", " ", ",,,,", " , ,", "\t", ",,,,,,"]),
)


def _reader_text(lines: list[str], ends: list[bool], final_newline: bool) -> bytes:
    body = "".join(line + ("\r\n" if crlf else "\n") for line, crlf in zip(lines, ends))
    if not final_newline and body.endswith("\n"):
        body = body[:-2] if body.endswith("\r\n") else body[:-1]
    return ("poll_id,voter,option_id,weight,timestamp\n" + body).encode("ascii")


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(READER_LINE, max_size=40), ends=st.lists(st.booleans(), min_size=40, max_size=40),
       final_newline=st.booleans())
def test_fast_reader_matches_the_csv_reader(tmp_path_factory, lines, ends, final_newline):
    path = tmp_path_factory.mktemp("reader") / "votes.csv"
    path.write_bytes(_reader_text(lines, ends, final_newline))
    registry = {1: make_poll(1, DAY0), 2: make_poll(2, DAY0)}
    fast = govdata._fast_vote_rows(path, registry)
    assert fast is not None
    _vote_rows_equal(fast, govdata._csv_vote_rows(path, registry))


def test_fast_reader_matches_the_csv_reader_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(govdata, "VOTE_BLOCK_BYTES", 64)
    lines = [f"{1 + i % 2},0x{i % 7:x},{1 + i % 3},{i % 5}.{i % 3},{DAY0 + i}" for i in range(200)]
    lines[17], lines[90], lines[151] = "1,0xa,1, 7,2021-03-01T00:00:20Z", "", "2,0xb,+2,7_0,1614556810,extra"
    path = tmp_path / "votes.csv"
    path.write_bytes(_reader_text(lines, [i % 3 == 0 for i in range(200)], False))
    registry = {1: make_poll(1, DAY0), 2: make_poll(2, DAY0)}
    fast = govdata._fast_vote_rows(path, registry)
    assert fast is not None
    _vote_rows_equal(fast, govdata._csv_vote_rows(path, registry))


# name -> (the lines after the header, whether the fast path reads the file)
NAMED_READER_CASES = {
    "lf-and-crlf": ([f"1,0xa,1,5,{DAY0 + 10}\r", f"2,0xb,1,3,{DAY0 + 20}", f"1,0xc,2,1,{DAY0 + 30}\r"], True),
    "no-final-newline": ([f"1,0xa,1,5,{DAY0 + 10}", f"1,0xb,1,3,{DAY0 + 20}"], True),
    "blank-lines": (["", f"1,0xa,1,5,{DAY0 + 10}", ",,,,", "   ", " , , , , ", f"1,0xb,1,3,{DAY0 + 20}"], True),
    "short-and-long-rows": (["1,0xa", f"1,0xb,1,3,{DAY0 + 20},extra,more", "1,0xc,1,3"], True),
    "int-forms": ([f" 1,0xa, 2,5,{DAY0 + 10}", f"+1,0xb,+2,3,{DAY0 + 20}", f"1_0,0xc,1,3,{DAY0 + 30}",
                   f"1,0xd,7_0, 7,{DAY0 + 40}", f"1,0xe,1,1,+{DAY0 + 50}"], True),
    "iso-timestamp": (["1,0xa,1,5,2021-03-01T00:00:20Z", "1,0xb,1,5,2021-03-01T00:00:20", "1,0xc,1,5,1614556810.9"],
                      True),
    "field-over-limit": ([f"1,0x{'9' * 131073},1,5,{DAY0 + 10}", f"1,0xb,1,3,{DAY0 + 20}"], False),
    "quote": ([f'1,"0xa",1,5,{DAY0 + 10}', f"1,0xb,1,3,{DAY0 + 20}"], False),
    "quote-at-the-end": ([f"1,0xb,1,3,{DAY0 + 20}"] * 3000 + [f'1,0xa,1,5,{DAY0 + 10}"'], False),
    "not-utf-8": ([f"1,0xa\udcff,1,5,{DAY0 + 10}", f"1,0xb,1,3,{DAY0 + 20}"], False),
    "lone-carriage-return": ([f"1,0xa,1,5,{DAY0 + 10}\r1,0xc,1,2,{DAY0 + 15}", f"1,0xb,1,3,{DAY0 + 20}"], False),
    "nul": ([f"1,0xa\0,1,5,{DAY0 + 10}", f"1,0xb,1,3,{DAY0 + 20}"], False),
}


@pytest.mark.parametrize("name", list(NAMED_READER_CASES))
def test_named_vote_files_load_as_the_per_row_loader(tmp_path, name):
    lines, fast = NAMED_READER_CASES[name]
    votes, polls = tmp_path / "votes.csv", tmp_path / "polls.csv"
    votes.write_bytes("\n".join(["poll_id,voter,option_id,weight,timestamp", *lines]).encode(
        "utf-8", "surrogateescape") + (b"" if name == "no-final-newline" else b"\n"))
    write_polls_csv(polls, [(1, DAY0, "p", "1:yes|2:no", ""), (2, DAY0, "q", "1:yes", "")])
    registry = load_vote_log(votes, polls).registry
    assert (govdata._fast_vote_rows(votes, registry) is not None) == fast
    log = load_vote_log(votes, polls)
    events, anomalies = load_vote_events_oracle(votes, polls)
    assert list(log.events) == events
    assert [str(e.weight) for e in log.events] == [str(e.weight) for e in events]
    assert log.report.anomalies == anomalies


@settings(max_examples=50, deadline=None)
@given(rows=vote_rows())
def test_quoted_load_matches_the_per_row_loader(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("quoted")
    with (tmp / "votes.csv").open("w", newline="") as handle:
        csv.writer(handle, quoting=csv.QUOTE_ALL).writerows([VOTES_HEADER, *rows])
    write_polls_csv(tmp / "polls.csv", [(1, DAY0, "p", "1:yes|2:no", ""), (2, DAY0, "q", "1:yes", "")])
    log = load_vote_log(tmp / "votes.csv", tmp / "polls.csv")
    events, anomalies = load_vote_events_oracle(tmp / "votes.csv", tmp / "polls.csv")
    assert list(log.events) == events
    assert [str(e.weight) for e in log.events] == [str(e.weight) for e in events]
    assert log.report.anomalies == anomalies


def _write_wide_history(tmp_path) -> None:
    """votes.csv and polls.csv of 50,000 rows: 3000 voters, each with its
    own weight, over 40 polls."""
    rows = [(1 + i % 40, addr(i % 3000), 1 + i % 3, f"{i % 3000 * 7.31:.3f}{i % 3000:015d}", DAY0 + i)
            for i in range(50_000)]
    write_votes_csv(tmp_path / "votes.csv", rows)
    write_polls_csv(tmp_path / "polls.csv", [(poll, DAY0, f"p{poll}", "1:yes|2:no|3:maybe", "") for poll in range(1, 41)])


def test_vote_log_is_read_in_blocks_not_held(tmp_path):
    _write_wide_history(tmp_path)
    tracemalloc.start()
    try:
        log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with open(tmp_path / "votes.csv", newline="") as handle:
            fields = [line.split(",") for line in handle]
        _, held = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.events) == len(fields) - 1 == 50_000
    assert peak < held / 3, f"loading peaked at {peak} traced bytes; the per-field lists take {held}"


def test_vote_log_is_written_in_blocks_not_held(tmp_path):
    _write_wide_history(tmp_path)
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    tracemalloc.start()
    try:
        write_vote_log(log, tmp_path / "again.csv", tmp_path / "polls_again.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "again.csv").stat().st_size
    assert load_vote_log(tmp_path / "again.csv", tmp_path / "polls.csv").events == log.events
    assert peak < written / 2, f"writing a {written}-byte votes.csv peaked at {peak} traced bytes"


def test_vote_ids_beyond_64_bits_are_bad_rows(tmp_path):
    big = 2**63
    write_votes_csv(tmp_path / "votes.csv", [
        (big, "0xa", 1, "5", DAY0 + 10), (1, "0xb", big, "5", DAY0 + 20), (1, "0xc", -big, "5", DAY0 + 30),
    ])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", ""), (big, DAY0, "q", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert [(a.kind, a.detail) for a in log.report.anomalies] == [
        ("bad vote row", f"line 2: poll_id {big} does not fit in 64 bits"),
        ("bad vote row", f"line 3: option_id {big} does not fit in 64 bits"),
    ]
    assert [(e.voter, e.option_id) for e in log.events] == [("0xc", -big)]
    assert [len(ballot_pass(log).ballots[poll]) for poll in (1, big)] == [1, 0]


def test_loading_builds_no_vote_event(tmp_path, monkeypatch):
    write_votes_csv(tmp_path / "votes.csv", [(1, addr(i), 1, "5", DAY0 + i) for i in range(1, 9)])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes|2:no", "")])
    built = []
    monkeypatch.setattr(govdata, "VoteEvent", lambda *fields: built.append(VoteEvent(*fields)) or built[-1])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert (len(log.events), len(log.voters())) == (8, 8)
    passed = ballot_pass(log)
    assert len(passed.polls) == 1
    assert built == []
    assert log.events[0].voter == addr(1)
    assert len(built) == 8


# weights each written in one of several forms: mixed exponents, E-notation,
# 1000-place weights, weights near the float maximum and weights that differ
# past the 28th digit
EXACT_WEIGHTS = st.one_of(
    st.integers(0, 10**30).flatmap(lambda n: st.integers(-40, 5).map(lambda e: Decimal(n).scaleb(e))),
    st.sampled_from(["0", "0.000", "-0", "0E-5", "0E-7", "1E+2", "1.5E-7", "7", "7.0", "0.7E+1", "1E-1000",
                     "3" + "1" * 999 + "E-1000",
                     "1.7976931348623157E+308", "1.79769313486231570E+308", "8.98846567431158E+307",
                     "123456789012.123456789012345679", "123456789012.123456789012345678"]).map(Decimal),
)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(EXACT_WEIGHTS, min_size=1, max_size=12), picks=st.lists(st.lists(st.integers(0, 11))))
def test_weight_sums_match_the_decimal_oracle(weights, picks):
    table = govdata.Weights(weights)
    assert [table.floats[i] for i in range(len(weights))] == [float(w) for w in weights]
    for i, a in enumerate(weights):
        for j, b in enumerate(weights):
            assert (table.ranks[i] < table.ranks[j]) == (a < b) and (table.ranks[i] == table.ranks[j]) == (a == b)
    for pick in [list(range(len(weights))), *picks]:
        segment = [i % len(weights) for i in pick]
        units = sum(table.units[i] for i in segment)
        want = exact_sum_oracle(weights[i] for i in segment)
        got = table.total(units, min((table.exponents[i] for i in segment), default=0))
        assert str(got) == str(want)
        assert table.units_of(want) == units
        assert table.to_floats([units])[0] == float(want)


def test_the_longest_weight_converts_to_units(tmp_path):
    # the float maximum's 309 integer digits and MAX_WEIGHT_PLACES places:
    # its 1309-digit coefficient is within the 4300 digits that CPython's int
    # converts from a str by default
    longest = f"{int(sys.float_info.max)}.{'9' * govdata.MAX_WEIGHT_PLACES}"
    write_votes_csv(tmp_path / "votes.csv", [(1, addr(1), 1, longest, DAY0 + 10), (1, addr(2), 1, "1E+2", DAY0 + 20)])
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    log = load_vote_log(tmp_path / "votes.csv", tmp_path / "polls.csv")
    assert log.report.anomalies == []
    table = log.weights
    assert len(longest) - 1 == 1309 < 4300
    assert table.exponent == -govdata.MAX_WEIGHT_PLACES
    assert table.units.tolist() == [int(longest.replace(".", "")), 10 ** (2 + govdata.MAX_WEIGHT_PLACES)]
    assert table.floats.tolist() == [sys.float_info.max, 100.0]
    total = table.total(sum(table.units), table.exponents.min())
    assert str(total) == str(exact_sum_oracle(log.weights.decimals))
    assert table.units_of(total) == sum(table.units)
