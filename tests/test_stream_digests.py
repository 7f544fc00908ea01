"""Pinned stream output: SHA-256 of the first tagged emissions.

The first 20,000 of one fixed input per bench ``weave`` route, the mirrored
climb, a climb whose runs are split at the slots of a middle strand, the
four-strand realizer, a realizer whose folded steering sides set early far
values aside, six routes over rational constants, a rest strand,
a folded side without constant runs and an oscillator side whose prefix
ends before its constant run, a bounded route with two middle
strands of different limits, and five routes whose extras enter at the
slots slot_l = max(slot_{l-1} + 1, (l+1)**3 * ceil(max(1, |e_l|))): the
bounded route at an end of its hull, with and without a middle strand, the
route at the limit point, and the two-sided route with a middle strand of
one integer and of two fractional constants; three two-sided routes, with
rational side values, with a prefixed side, and with alternation stretches
that end where a side's run ends; and the first 100,000 of the four-strand
realizer for one prescribed set per bench ``realize`` shape (each of the
low and high pieces a point or an interval), for a single point below and
one above the midpoint, and of a realizer whose divergent parts are each
folded from two strands.  Each stream's ``blocks()``
must also expand to its ``tagged_stream()``, and the oscillator, the
bounded routes over constant parts and the routes with extras cover their
first 20,000 emissions with a pinned number of blocks; two of them pin a
merge at and past the most rows a period may hold, and the bench's
two-sided row is held near its pinned block counts.  Every realizer pins,
beside its stream, every schedule window recorded by the end of its pinned
emissions.
"""

import hashlib
from fractions import Fraction
from itertools import accumulate, islice

import pytest

from meanweave import harness
from meanweave.dsl import parse_spec
from meanweave.harness import _walk, check_tube, iter_trace
from meanweave.rearrange import construct_target, oscillator
from meanweave.realizer import realizer_from_spec
from test_realizer import four_strand_realizer

F = Fraction
COUNT = 20_000
REALIZER_COUNT = 100_000


def _route(text, target):
    spec = parse_spec(text)
    if target is None:
        return lambda: oscillator(spec)
    return lambda: construct_target(spec, target)


STREAMS = {
    "bounded": _route("interleave(const(-1), const(2))", F(1, 3)),
    "bounded_middle": _route("interleave(const(-1), interleave(const(2), const(1/2)))", F(6, 5)),
    "climb_linear": _route("interleave(const(1), linear())", F(11, 4)),
    "climb_pow2": _route("interleave(const(1), pow(2))", F(5, 2)),
    "two_sided": _route("interleave(neg(runlen(4)), runlen(4))", F(-5, 3)),
    # a middle strand as extras, 26 in the pinned emissions, each in place
    # of a steering step; fractional extras widen the running sum's
    # denominator in the middle of a steering phase
    "two_sided_extras": _route(
        "interleave(neg(runlen(4)), interleave(runlen(4), const(0)))", F(1, 2)),
    "two_sided_fractional_extras": _route(
        "interleave(neg(runlen(4)), interleave(runlen(4),"
        " interleave(const(1/3), const(2/7))))", F(1, 2)),
    # rational side values, with high swings longer than one element; a
    # prefixed side; alternation stretches that end where a side's run ends
    "two_sided_rational": _route(
        "interleave(neg(runlen(2)), affine(runlen(4), 1/3, 1/2))", F(1, 5)),
    "two_sided_prefixed": _route(
        "interleave(prefix(-7, 5/2, neg(runlen(4))), runlen(2))", F(-2, 3)),
    "two_sided_run_ends": _route("interleave(neg(runlen(4)), runlen(4))", F(0)),
    "oscillator": _route("interleave(const(-1), const(2))", None),
    "mirrored_climb": _route("interleave(const(-2), neg(pow(2)))", F(-4)),
    "climb_middle": _route("interleave(interleave(const(0), const(1)), pow(2))", F(3)),
    # extras at slots: the core's runs pass whole between two of them
    "bounded_end": _route("interleave(const(0), const(1))", F(0)),
    "bounded_middle_end": _route(
        "interleave(const(-1), interleave(const(2), const(1/2)))", F(-1)),
    "at_limit": _route("interleave(const(0), linear())", F(0)),
    "four_strand_realizer": four_strand_realizer,
    # rational constants, as the bench draws them; a rest strand; a folded
    # side with no constant runs, which steps one emission at a time
    "bounded_rational": _route("interleave(const(-7/3), const(5/2))", F(1, 5)),
    "oscillator_rational": _route("interleave(const(-7/3), const(5/2))", None),
    "bounded_rational_middle": _route(
        "interleave(const(-7/3), interleave(const(5/2), const(-1/2)))", F(1, 5)),
    "bounded_two_middle": _route(
        "interleave(const(0), interleave(const(1), interleave(const(1/3), const(2/3))))", F(1, 2)),
    "oscillator_rest": _route("interleave(interleave(const(0), const(3)), const(1))", None),
    "bounded_folded": _route("interleave(interleave(const(0), const(0)), const(1))", F(1, 3)),
    # a period of 4,096 blocks, the most a merge records, and one of 6,000,
    # which streams block by block
    "bounded_at_guard": _route("interleave(const(0), const(1))", F(2048, 4099)),
    "bounded_past_guard": _route("interleave(const(0), const(1))", F(3000, 7001)),
    "oscillator_folded": _route("interleave(interleave(const(0), const(0)), const(1))", None),
    # a low side whose prefix runs end before its constant run begins
    "oscillator_prefixed": _route("interleave(prefix(2, 2, 2, const(0)), const(1))", None),
    # steering sides folded from strands at different depths, with early
    # values far from their limits: each side's head and the first value it
    # set aside are both on offer to the splice
    "realizer_far_steering": lambda: realizer_from_spec(parse_spec(
        "interleave(interleave(prefix(5, 5, const(0)), interleave(neg(square(linear())),"
        " interleave(prefix(-4, 7, -9, const(0)), const(0)))),"
        " interleave(interleave(prefix(3, -3, const(1)), square(linear())),"
        " interleave(const(1), prefix(6, 6, 6, 6, const(1)))))"), [F(1, 4), F(3, 4)]),
}

DIGESTS = {
    "bounded":
        "9c74a8bb7800291e08e97ecd748c21b0c203e7da1940ffbfa3fc23901f6babd3",
    "bounded_middle":
        "a9fe263d125586b4427577300b11ff580d9c1ed021af75bf87347a4da71c01b5",
    "climb_linear":
        "04c9821f99ee80b69cfaef468a4fe34c2267eaff3555f942aa079716b054eb04",
    "climb_pow2":
        "5d20d733e9efd697d77f4d907831c7c397ea7129fe3c707348b4db3aedf232ae",
    "two_sided":
        "b5b70569dc11afcdf4b645d0bcf086d4be1fa5601fe2edf1211e637b4d4c791b",
    "two_sided_extras":
        "8f6ddf65fdbd742bef18b8a63368f608c14ea36510ac7baaa5a6f9dec2de6906",
    "two_sided_fractional_extras":
        "af5211ea2369a3ceabea859207c60bed86dd6321c9e48155af7bb4a40cb873e4",
    "two_sided_rational":
        "26af3c8741299118438b55c1c3a72ae460f82898d1896ed317ad4e9b222f5692",
    "two_sided_prefixed":
        "0dc5763a7d4fe45550c619857dc6f907af384172564346f968b4bc9b975390a6",
    "two_sided_run_ends":
        "f55bc39d9f952a6069f36faa77e470685cbb200414db5da9c4bd825f6a6513b4",
    "oscillator":
        "cdf7c3017b4562dc2654c144e5377f33fcfeab60f4acf46897eb26e66ab2eb1f",
    "mirrored_climb":
        "46cad5b1d2f93f4c1f781efc35c1f838b182f3478f314a2c3a600495f2ccaaf3",
    "climb_middle":
        "3a7121cfd43623c3e9f5b4970c872accb6f39e9023c7a38a2a6d91219ca1d190",
    "bounded_end":
        "ea13620afcc49396ea7a3ea5cbfa987d93d4ab7f160b7a645ed6a601f3e6c30f",
    "bounded_middle_end":
        "afbc4100cbd1e559c31b5eea6915dbf419a684b88bc9623db973f5e82f59d6c3",
    "at_limit":
        "43366cc0a4a36fca9e3002b05d56f6ff2255b40a25c438b97c1dcbcc116c79be",
    "four_strand_realizer":
        "8b52ff32698dc5819122682704ab59ce9c443dd96b7ff70291641c653e507289",
    "bounded_rational":
        "9422431f9bfcdfa0ea26bdfbf1fbb38f9b24c800bc3159af3bc63e1570b0c3c3",
    "oscillator_rational":
        "6fd90267dbdcf498a045a38768f4b6b20bee4fc9642bd0592a253928440356ca",
    "bounded_rational_middle":
        "028ac71cd52dbb90ab5a468d8d35aef204f80b5eaebd6a6f4970f843c4d6fb14",
    "bounded_two_middle":
        "7f6c8f657eb51d02fdc8e9839f7270f48bb63f3ba37b420e9bd1a1f9c2a45007",
    "oscillator_rest":
        "90212d754d2d2a2f44c894be13c05d443507b31629022c1227995f872b4d02f3",
    "bounded_folded":
        "8332c4b2e24021e15951572423dae1775336bd415060b67af70f62a2279e8296",
    "bounded_at_guard":
        "f343a53aa7c3b16ba52f7dade2716565ea5e0211acf4bb432735c88293e307f0",
    "bounded_past_guard":
        "9e8f7a35866bad7d3b26ea32f66b6cfc52a3bf954ca6da6fe4c799c796490a71",
    "oscillator_folded":
        "412e3b0f42a22eb67ebaceec16a5352ff8d03ab7de626e799862901b8f40128e",
    "realizer_far_steering":
        "96b22384965692022ed1562c57ab458f3857092d56a166be3bd2afe68fe5a9aa",
    "oscillator_prefixed":
        "f48bd985458e52e6340ddb985aa5d812e1cc6b162c4de1b013a37937f3568383",
}


# each divergent part folded from two strands, so what a jump passes over
# is not in the part's source order
FOLDED_DIVERGENT = (
    "interleave(interleave(interleave(const(0), neg(pow(3))), neg(square(linear()))),"
    " interleave(const(1), interleave(pow(3), square(linear()))))"
)

REALIZERS = {
    "point_point": lambda: four_strand_realizer([F(1, 8), F(7, 8)]),
    "interval_point": lambda: four_strand_realizer([(F(1, 10), F(2, 15)), F(6, 7)]),
    "point_interval": lambda: four_strand_realizer([F(1, 6), (F(4, 5), F(5, 6))]),
    "interval_interval": lambda: four_strand_realizer(
        [(F(1, 12), F(1, 8)), (F(7, 8), F(11, 12))]),
    "folded_divergent": lambda: realizer_from_spec(
        parse_spec(FOLDED_DIVERGENT), [F(1, 4), F(3, 4)]),
}

REALIZER_DIGESTS = {
    "point_point":
        "b8e98793d2e1dabdf24324e6ead42793b20e457cab05e79e5b8c812098a2d531",
    "interval_point":
        "b97fbdabc7b25314f1eb9b34c0759076b672ac21264398df8f35a05313e8778b",
    "point_interval":
        "c868d287df312bcaeff08760321c181797f91b84c987b8396eb3a383a0ed6c58",
    "interval_interval":
        "725907e046b8e1668dbfa87758125ff1d342f03c497cd69036d67f78d0f54bbc",
    "folded_divergent":
        "22288d96a79f4344244a714ee8164348a596e42cf309e0e2d24c9576791bc2ef",
}


def _digest(emissions) -> str:
    h = hashlib.sha256()
    for src, value, tag in emissions:
        h.update(f"{src} {value} {tag}\n".encode())
    return h.hexdigest()


def _expand(blocks):
    """Emissions of ``blocks``, read here without the package's unrolling: a
    period block ``(None, total, count, rows, length)`` plays its rows
    ``(tag, value, size, first_src, step, advance)`` count // length times,
    repeat j with each first source moved by j advances, and ``total`` is
    the sum of one period."""
    for tag, value, size, src, step in blocks:
        if tag is not None:
            yield from ((src + step * j, value, tag) for j in range(size))
            continue
        assert size % step == 0 and sum(c * v for _t, v, c, *_ in src) == value
        assert sum(c for _t, _v, c, *_ in src) == step
        for j in range(size // step):
            for t, v, c, s, st, a in src:
                yield from ((s + a * j + st * i, v, t) for i in range(c))


def _check(r, count, digest):
    tagged = list(islice(r.tagged_stream(), count))
    assert len(tagged) == count
    assert _digest(tagged) == digest
    assert list(islice(_expand(r.blocks()), count)) == tagged


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_digest_and_block_expansion(name):
    _check(STREAMS[name](), COUNT, DIGESTS[name])


@pytest.mark.parametrize("shape", sorted(REALIZERS))
def test_realizer_digest_and_block_expansion(shape):
    _check(REALIZERS[shape](), REALIZER_COUNT, REALIZER_DIGESTS[shape])


# constant strands emit runs, and a merge of constant parts period blocks
# past its first period: a return to per-emission steering fails here.  An
# oscillator swing is one block per run of its side it touches
BLOCK_COUNTS = {
    "oscillator": 14,
    "oscillator_prefixed": 14,
    "bounded": 22,
    "bounded_middle": 25,
    "bounded_rational": 148,
    "bounded_rational_middle": 1_745,
    "bounded_two_middle": 18,
    "bounded_at_guard": 4_101,
    "bounded_past_guard": 17_141,
    "climb_middle": 162,
    "bounded_end": 66,
    "bounded_middle_end": 105,
    "at_limit": 36,
}


@pytest.mark.parametrize("name", sorted(BLOCK_COUNTS))
def test_constant_strands_cover_the_pinned_emissions_in_runs(name):
    covered = blocks = 0
    for block in STREAMS[name]().blocks():
        blocks += 1
        covered += block[2]
        if covered >= COUNT:
            break
    assert blocks == BLOCK_COUNTS[name]


# the bench's two-sided row to 20,000 positions, steered in closed form:
# alternation stretches are period blocks of two rows and a swing inside
# one run of its side is one run.  The counts may move by a tenth as the
# closed form is refined; a return to blocks of one (20,000) fails here
TWO_SIDED_BLOCKS = {F(0): 101, F(11, 3): 2_290}


@pytest.mark.parametrize("target", sorted(TWO_SIDED_BLOCKS))
def test_two_sided_steering_covers_the_pinned_emissions_in_few_blocks(target):
    r = construct_target(parse_spec("interleave(neg(runlen(4)), runlen(4))"), target)
    covered = blocks = 0
    for block in r.blocks():
        blocks += 1
        covered += block[2]
        if covered >= COUNT:
            break
    assert abs(blocks - TWO_SIDED_BLOCKS[target]) <= TWO_SIDED_BLOCKS[target] // 10


def test_a_two_sided_high_swing_is_one_block_a_run_it_touches():
    """On rational side values with high swings longer than one element
    (no extras, no stretch), a swing is one block but where it crosses
    from one run of its side into the next."""
    swings, swing = [], None
    covered = 0
    for tag, value, count, *_ in STREAMS["two_sided_rational"]().blocks():
        if tag == "high":
            swing = (swing or []) + [(value, count)]
        elif swing is not None:
            swings.append(swing)
            swing = None
        covered += count
        if covered >= COUNT:
            break
    long = [s for s in swings if sum(count for _v, count in s) > 1]
    assert len(long) > 5_000
    assert all(len({value for value, _count in s}) == len(s) for s in long)


def test_the_walk_to_ten_million_takes_logarithmically_many_blocks():
    """Period blocks double their repeats: the bounded route's first period
    (positions 3..11) follows 2 positions in 2 blocks, and 1 + 2 + ... + 2**20
    periods of 9 positions pass 10**7, so the walk there takes 10 blocks and
    21 period blocks, the last cut at the horizon."""
    walked = list(_walk(STREAMS["bounded"](), 10**7))
    assert len(walked) == 31
    assert [block[2] is None for block in walked] == [False] * 10 + [True] * 21
    assert walked[-1][0] + walked[-1][1] == 10**7
    assert check_tube(iter_trace(STREAMS["bounded"](), 10**7), F(1, 3), F(1, 1000), 10_000)


PERIOD_ROUTES = ["bounded", "bounded_middle", "bounded_rational", "bounded_two_middle"]


@pytest.mark.parametrize("name", PERIOD_ROUTES + [
    "climb_linear", "oscillator", "two_sided", "two_sided_run_ends", "four_strand_realizer"])
def test_a_horizon_cutting_a_period_block_traces_its_positions(name):
    """Every horizon to 200 positions, so every cut of the first period
    blocks, among them one at a block's first position (12 and 21 on the
    bounded route), of the first runs, and of blocks of one: each entry is
    ``(n, source_index, value, partial_sum, average)`` of the test-local
    expansion."""
    expected = list(islice(_expand(STREAMS[name]().blocks()), 200))
    sums = list(accumulate(value for _src, value, _tag in expected))
    rows = [(n, src, value, total, total / n)
            for n, (src, value, _tag), total in zip(range(1, 201), expected, sums)]
    r = STREAMS[name]()
    for n in range(1, 201):
        assert [tuple(e) for e in iter_trace(r, n)] == rows[:n]


@pytest.mark.parametrize("name", PERIOD_ROUTES)
def test_a_period_past_the_flat_limit_traces_its_rows_as_runs(name, monkeypatch):
    """A period of more positions than ``FLAT_PERIOD`` is walked as its rows'
    runs, every repeat: the same entries, to every horizon to 200."""
    r = STREAMS[name]()
    flat = [tuple(e) for e in iter_trace(r, 200)]
    monkeypatch.setattr(harness, "FLAT_PERIOD", 0)
    assert all(block[2] is not None for block in _walk(r, 200))
    for n in range(1, 201):
        assert [tuple(e) for e in iter_trace(r, n)] == flat[:n]


# Z on one side of the midpoint: every jump wants the same direction, and
# every fourth is forced the other way so that neither infinity starves
ONE_SIDED = {
    "low_point": lambda: four_strand_realizer([F(1, 8)]),
    "high_point": lambda: four_strand_realizer([F(7, 8)]),
}

ONE_SIDED_DIGESTS = {
    "low_point":
        "a6dfb1200e0d0bf962deb5880173ccc3a4d01f9c924e4cc51ec0ed69f9b9bbba",
    "high_point":
        "e2b4d0aa06e5877a0a7b36eb9fa5577995323ccb305bbbf3b3dc1750f93a8b40",
}


@pytest.mark.parametrize("shape", sorted(ONE_SIDED))
def test_one_sided_realizer_digest_and_block_expansion(shape):
    _check(ONE_SIDED[shape](), REALIZER_COUNT, ONE_SIDED_DIGESTS[shape])


@pytest.mark.parametrize("shape, signs", [
    ("low_point", [-1, -1, -1, 1, -1, 1]),
    ("high_point", [1, 1, 1, -1, 1, -1]),
])
def test_one_sided_realizer_jumps_both_ways(shape, signs):
    jumps = [value for tag, value, *_ in islice(ONE_SIDED[shape]().blocks(), 20_000)
             if tag == "jump"]
    assert [1 if v > 0 else -1 for v in jumps[:6]] == signs


# every schedule entry recorded once the pinned emissions are streamed
REALIZER_STREAMS = {
    **{name: (STREAMS[name], COUNT) for name in ("four_strand_realizer", "realizer_far_steering")},
    **{shape: (make, REALIZER_COUNT) for shape, make in {**REALIZERS, **ONE_SIDED}.items()},
}

SCHEDULE_DIGESTS = {
    "folded_divergent":
        "ce877cc83ec3198450684b0177bdb2273c8c9926b087af0ca7c764ed5bce92fa",
    "four_strand_realizer":
        "ad4fecee22a83097445279176f4cf5c59665ebcb281510bd96a81983210b7591",
    "high_point":
        "755a43842937ad72539cc1572ab352bd3f5a9b83cd4f4d0f21d505be5426c42e",
    "interval_interval":
        "9921c6716ebc413481c09d166333ab5a5d7e2f36a9b22dea7408004ee7920a25",
    "interval_point":
        "8bebb8bf7cc2f3ec47b8abd6bf4af1e52a139f5e5783694e70af8111299bc5f1",
    "low_point":
        "c0d18a4d68d0c3655688013caec9a8e32b6712093f8cb2dd8c265dc35a3c4346",
    "point_interval":
        "62be7c9761d220bb659d875b268880f24e27e5c2c075f9517fd28cafe1da08c9",
    "point_point":
        "e908b0929f1341946af9d08d15e2a379854b9dde52b972c922b0525a55f9077b",
    "realizer_far_steering":
        "b4c187e0ed77a048fc52aca26085aeb010e19990059702bef1675528944ddb4a",
}


@pytest.mark.parametrize("name", sorted(REALIZER_STREAMS))
def test_realizer_schedule_digest(name):
    make, count = REALIZER_STREAMS[name]
    r = make()
    covered = 0
    for block in r.blocks():
        covered += block[2]
        if covered >= count:
            break
    h = hashlib.sha256()
    for e in r.meta["schedule"]:
        h.update(f"{e.kind} {e.stage} {e.lo} {e.hi} {e.from_index} {e.target}\n".encode())
    assert h.hexdigest() == SCHEDULE_DIGESTS[name]
