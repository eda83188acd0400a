"""Ingestion, final-ballot resolution, winner rule and validation."""

from __future__ import annotations

from datetime import date
from decimal import Decimal

import pytest

from conftest import DAY0, addr, make_log, make_poll, write_factors_csv, write_polls_csv, write_votes_csv
from govpulse.centrality import ballot_pass
from govpulse.govdata import (
    FACTORS_HEADER,
    IDENTITIES_HEADER,
    POLLS_HEADER,
    VOTES_HEADER,
    SchemaError,
    final_ballots,
    load_factors,
    load_vote_log,
    parse_timestamp,
    validate_dataset,
    write_vote_log,
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


def _order(log, ballot_rule="last", order_rule="last"):
    """The order measure of the log's only measured poll."""
    (pm,) = ballot_pass(log, ballot_rule=ballot_rule, order_rule=order_rule).polls
    return pm.order


def test_final_ballot_last_event_counts():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(1), 2, "5", DAY0 + 500)],
        [make_poll(1, DAY0)],
    )
    ballots = final_ballots(log, 1)
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
    b = final_ballots(log, 1, rule="first")[0]
    assert (b.option_id, b.timestamp) == (1, DAY0 + 100)
    assert _order(log, ballot_rule="first") == 1 / 2


def test_final_ballots_two_voters_indices():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(2), 2, "3", DAY0 + 200)],
        [make_poll(1, DAY0)],
    )
    ballots = final_ballots(log, 1)
    assert [b.timestamp for b in ballots] == [DAY0 + 100, DAY0 + 200]
    assert _order(log) == 1 / 2


def test_final_ballots_empty_poll():
    log = make_log([], [make_poll(1, DAY0)])
    assert final_ballots(log, 1) == []


def test_final_ballots_sorted_by_weight_then_time():
    log = make_log(
        [
            (1, addr(1), 1, "5", DAY0 + 300),
            (1, addr(2), 1, "9", DAY0 + 100),
            (1, addr(3), 2, "5", DAY0 + 200),
        ],
        [make_poll(1, DAY0)],
    )
    ballots = final_ballots(log, 1)
    assert [b.voter for b in ballots] == [addr(2), addr(3), addr(1)]


def test_final_ballots_sort_weights_that_differ_past_28_digits():
    heavy, light = "123456789012.123456789012345679", "123456789012.123456789012345678"
    log = make_log(
        [(1, addr(1), 1, light, DAY0 + 10), (1, addr(2), 2, heavy, DAY0 + 20)],
        [make_poll(1, DAY0)],
    )
    assert [str(b.weight) for b in final_ballots(log, 1)] == [heavy, light]
    (pm,) = ballot_pass(log).polls
    assert (str(pm.largest_votes), pm.ifwin, pm.order) == (heavy, 1, 2 / 2)


def test_equal_timestamp_permutation_keeps_weights(simple_log):
    events = [
        (1, addr(1), 1, "60", DAY0 + 100),
        (1, addr(2), 2, "40", DAY0 + 100),
        (1, addr(3), 1, "7", DAY0 + 100),
    ]
    log_a = make_log(events, [make_poll(1, DAY0)])
    log_b = make_log(list(reversed(events)), [make_poll(1, DAY0)])
    weights_a = sorted((b.voter, b.weight) for b in final_ballots(log_a, 1))
    weights_b = sorted((b.voter, b.weight) for b in final_ballots(log_b, 1))
    assert weights_a == weights_b


def test_revisions_never_add_weight(simple_log):
    for poll_id in simple_log.poll_ids():
        raw = sum((e.weight for e in simple_log.poll_events(poll_id)), Decimal(0))
        final = sum((b.weight for b in final_ballots(simple_log, poll_id)), Decimal(0))
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
    assert report.events == 6
    assert report.polls == 2
    assert report.voters == 3


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


def test_round_trip_identity(tmp_path, simple_log):
    write_vote_log(simple_log, tmp_path / "v.csv", tmp_path / "p.csv", tmp_path / "i.csv")
    again = load_vote_log(tmp_path / "v.csv", tmp_path / "p.csv", tmp_path / "i.csv")
    assert again == simple_log


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
