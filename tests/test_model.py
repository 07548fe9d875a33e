"""Identifier grammar, datestamp parsing and the writer of XML values."""

from datetime import datetime, timedelta, timezone
from xml.sax import saxutils  # the reference writer

import pytest
from hypothesis import given, strategies as st

from overlay_repo.errors import ValidationError
from overlay_repo.model import (
    escape,
    format_datestamp,
    handle_suffix,
    is_handle,
    is_pid,
    make_pid,
    parse_datestamp,
    pid_number,
    pid_sort_key,
    pid_sorted,
    quoteattr,
)


def _strptime_only(value: str) -> datetime:
    """The reference: the strptime loop alone, as parse_datestamp read
    every stamp before it read zero-padded ones from their digits."""
    for fmt in ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%d"):
        try:
            return datetime.strptime(value, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
    raise ValidationError(f"malformed UTC datestamp {value!r}")


def _outcome(parse, value: str):
    try:
        return parse(value)
    except ValidationError:
        return "rejected"


@pytest.mark.parametrize("value", [
    "2005-03-05",
    "2005-03-05T12:00:00Z",
    "2005-3-5",                  # unpadded: strptime accepts it
    "2005-03-05T1:2:3Z",
    "2005-02-30",                # no such day
    "2004-02-29",
    "2005-02-29",
    "0000-01-01",
    "9999-12-31T23:59:59Z",
    "2005-13-01",
    "2005-03-05T24:00:00Z",
    "2005-03-05T12:00:60Z",
    "２００５-03-05",   # fullwidth digits
    "٢٠٠٥-٠٣-٠٥",  # Arabic-Indic digits
    "2005-03-05\n",
    "2005-03-05T12:00:00Z\n",
    "2005-03-05 ",
    " 2005-03-05",
    "2005-03-05T12:00:00",       # time without Z
    "2005-03-05t12:00:00z",
    "",
])
def test_parse_datestamp_agrees_with_strptime(value):
    assert _outcome(parse_datestamp, value) == _outcome(_strptime_only, value)


_near_stamps = st.from_regex(
    r"[0-9]{1,5}-[0-9]{1,3}-[0-9]{1,3}(T[0-9]{1,3}:[0-9]{1,3}:[0-9]{1,3}Z?)?\s?",
    fullmatch=True)
_written_stamps = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
    timezones=st.just(timezone.utc)).map(format_datestamp)
_stamp_alphabet = st.text(alphabet="0123456789-:TZtz \n٣５", max_size=24)


@given(st.one_of(_near_stamps, _written_stamps, _written_stamps.map(lambda s: s[:10]),
                 _stamp_alphabet))
def test_parse_datestamp_agrees_with_strptime_on_any_string(value):
    assert _outcome(parse_datestamp, value) == _outcome(_strptime_only, value)


@pytest.mark.parametrize("pid", ["nsdl:1\n", "nsdl:1\r", " nsdl:1", "nsdl:", "nsdl:1a",
                                 "nsdl:01", "nsdl:00"])
def test_pid_grammar_is_matched_whole(pid):
    assert not is_pid(pid)
    with pytest.raises(ValidationError, match="malformed pid"):
        pid_number(pid)


def test_pids_sort_in_numeric_order():
    pids = [make_pid(n) for n in (100, 9, 0, 10, 11, 2, 99)]
    want = sorted(pids, key=pid_number)
    assert pid_sorted(pids) == sorted(pids, key=pid_sort_key) == want
    assert want[2:4] == ["nsdl:9", "nsdl:10"]


@pytest.mark.parametrize("handle", ["hdl:2200/00001\n", "hdl:2200/", "2200/00001"])
def test_handle_grammar_is_matched_whole(handle):
    assert not is_handle(handle)
    with pytest.raises(ValidationError, match="malformed handle"):
        handle_suffix(handle)


@pytest.mark.parametrize("when, written", [
    (datetime(2005, 3, 5, 12, 0, 7, tzinfo=timezone.utc), "2005-03-05T12:00:07Z"),
    (datetime(999, 1, 2, tzinfo=timezone.utc), "0999-01-02T00:00:00Z"),
    (datetime(1, 1, 1, tzinfo=timezone.utc), "0001-01-01T00:00:00Z"),
    (datetime(2005, 3, 5, 23, 30, tzinfo=timezone(timedelta(hours=-2))),
     "2005-03-06T01:30:00Z"),
])
def test_format_datestamp_writes_utc_with_a_4_digit_year(when, written):
    assert format_datestamp(when) == written
    assert parse_datestamp(written) == when


# Any text, drawn often from the characters the writers replace or quote.
_values = st.text(st.one_of(st.sampled_from("&<>\"'\t\n\r"), st.characters()))


@given(_values)
def test_quoteattr_writes_what_saxutils_writes(value):
    assert quoteattr(value) == saxutils.quoteattr(value)


@given(_values)
def test_escape_is_saxutils_escape_and_a_carriage_return_reference(value):
    assert escape(value) == saxutils.escape(value, {"\r": "&#13;"})
