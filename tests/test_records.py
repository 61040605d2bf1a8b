"""The plain immutable records: keyword construction, read-only fields, copies and equality."""

import copy
import pickle
from types import MappingProxyType

import pytest

from loandetect.config import RunConfig
from loandetect.features import VocabStatistics
from loandetect.wordlist import LexicalEntry, Wordlist

ENTRY = LexicalEntry("pata", ("p", "a", "t", "a"), "toy", "noun", 1, "c1")
WORDLIST = Wordlist([ENTRY, LexicalEntry("kisu", ("k", "i", "s", "u"), "toy", "verb")])


def stats(**changes):
    fields = dict(
        group=None, rows=(0,), members=b"\x01", gram_counts=(1,), gram_totals=(0, 0, 1),
        trans_counts=(1,), trans_probs=(1.0,), length_mean=4.0, length_std=1.0,
    )
    return VocabStatistics(**{**fields, **changes})


@pytest.mark.parametrize("record", [ENTRY, WORDLIST, RunConfig(), stats()],
                         ids=["LexicalEntry", "Wordlist", "RunConfig", "VocabStatistics"])
def test_fields_refuse_assignment_and_deletion(record):
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1


def clones(record):
    return [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]


@pytest.mark.parametrize("record", [ENTRY, WORDLIST], ids=["LexicalEntry", "Wordlist"])
def test_copies_and_pickles_equal_the_original(record):
    for clone in clones(record):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(tau=0.4, mode="aug"),
    RunConfig(anomaly_thresholds={"len_z": 0.8}),
])
def test_config_copies_and_pickles_equal_the_original(cfg):
    for clone in clones(cfg):
        assert clone == cfg and hash(clone) == hash(cfg)
        assert clone.to_flat() == cfg.to_flat()  # a partial map gains no default keys
        assert all(type(getattr(clone, name)) is MappingProxyType
                   for name in ("weights", "pos_weights", "polarity",
                                "anomaly_thresholds", "anomaly_boosts"))


def test_an_entry_never_equals_a_wordlist():
    assert ENTRY.__eq__(WORDLIST) is NotImplemented
    assert ENTRY != WORDLIST and WORDLIST != ENTRY
    assert ENTRY != Wordlist([ENTRY])


def test_statistics_compare_by_identity():
    record = stats()
    assert record == record and hash(record) == hash(record)
    assert stats() != record
    for clone in clones(record):
        assert clone != record and clone._values() == record._values()


def test_keyword_constructor_takes_defaults_and_refuses_unknown_or_missing_fields():
    assert stats(length_std=2.0).length_std == 2.0
    assert RunConfig(tau=0.4).gamma == RunConfig.gamma
    with pytest.raises(TypeError, match="VocabStatistics\\(\\) got an unexpected keyword "
                                        "argument 'bogus'"):
        stats(bogus=1)
    with pytest.raises(TypeError, match="RunConfig\\(\\) got an unexpected keyword "
                                        "argument 'bogus'"):
        RunConfig(bogus=1)
    with pytest.raises(TypeError, match="VocabStatistics\\(\\) missing field\\(s\\) "
                                        "'rows', 'length_std'$"):
        VocabStatistics(group=None, members=b"", gram_counts=(), gram_totals=(),
                        trans_counts=(), trans_probs=(), length_mean=0.0)
