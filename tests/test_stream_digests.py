"""Pinned stream output: SHA-256 of the first tagged emissions.

The first 20,000 of one fixed input per bench ``weave`` route, the mirrored
climb, a climb whose runs pass the insertion gate of a middle strand, and
the four-strand realizer; and the first 100,000 of the four-strand realizer
for one prescribed set per bench ``realize`` shape (each of the low and high
pieces a point or an interval).  Each stream's ``blocks()`` must also expand
to its ``tagged_stream()``.
"""

import hashlib
from fractions import Fraction
from itertools import islice

import pytest

from meanweave.dsl import parse_spec
from meanweave.rearrange import construct_target, oscillator
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
    "oscillator": _route("interleave(const(-1), const(2))", None),
    "mirrored_climb": _route("interleave(const(-2), neg(pow(2)))", F(-4)),
    "climb_middle": _route("interleave(interleave(const(0), const(1)), pow(2))", F(3)),
    "four_strand_realizer": four_strand_realizer,
}

DIGESTS = {
    "bounded":
        "9c74a8bb7800291e08e97ecd748c21b0c203e7da1940ffbfa3fc23901f6babd3",
    "bounded_middle":
        "6613054f0b4b08e1341c5645a5d34b3d38198395185be3dd966dc1a20fde795c",
    "climb_linear":
        "9599a086805f70c85dcee6fb6790d575444b70424f6ece6b3e1f514075ba0c0a",
    "climb_pow2":
        "67075ebe62a74c4ee6f55c42ab4d0b77b23abad75d9a1ac675cc72c8a9267bec",
    "two_sided":
        "b5b70569dc11afcdf4b645d0bcf086d4be1fa5601fe2edf1211e637b4d4c791b",
    "oscillator":
        "cdf7c3017b4562dc2654c144e5377f33fcfeab60f4acf46897eb26e66ab2eb1f",
    "mirrored_climb":
        "7c085f060f94fa07df411852ce3c3f65df27a5a8b71dd823ef37ff3e74446609",
    "climb_middle":
        "2e2b6c8516318d6b175894ca83cfbc2b3e1d815ff169c396d828f34b1ec39738",
    "four_strand_realizer":
        "8b52ff32698dc5819122682704ab59ce9c443dd96b7ff70291641c653e507289",
}


REALIZER_ZSETS = {
    "point_point": [F(1, 8), F(7, 8)],
    "interval_point": [(F(1, 10), F(2, 15)), F(6, 7)],
    "point_interval": [F(1, 6), (F(4, 5), F(5, 6))],
    "interval_interval": [(F(1, 12), F(1, 8)), (F(7, 8), F(11, 12))],
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
}


def _digest(emissions) -> str:
    h = hashlib.sha256()
    for src, value, tag in emissions:
        h.update(f"{src} {value} {tag}\n".encode())
    return h.hexdigest()


def _check(r, count, digest):
    tagged = list(islice(r.tagged_stream(), count))
    assert len(tagged) == count
    assert _digest(tagged) == digest
    expanded = []
    for tag, value, size, src, step in r.blocks():
        expanded.extend((src + step * j, value, tag) for j in range(size))
        if len(expanded) >= count:
            break
    assert expanded[:count] == tagged


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_digest_and_block_expansion(name):
    _check(STREAMS[name](), COUNT, DIGESTS[name])


@pytest.mark.parametrize("shape", sorted(REALIZER_ZSETS))
def test_realizer_digest_and_block_expansion(shape):
    _check(
        four_strand_realizer(REALIZER_ZSETS[shape]),
        REALIZER_COUNT,
        REALIZER_DIGESTS[shape],
    )
