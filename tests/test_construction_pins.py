"""The constructions write the same certificates as they did when these
digests were taken.

Each digest is the sha256, cut to 16 hex digits, of two lines per
instance: `certificate.json_text()` of `glg_realization`, then that of
`single_extra_realization`, or "-" where it refuses the instance
(HypothesisNotMet).  So any change to a certificate's digraph, ordering,
extras or base shows up here, and so does a change in which instances
take one extra.  Each line must also be what
`json.dumps(..., sort_keys=True)` writes for its document, byte for
byte.  Each certificate's body, read by label, must come back from the
label-to-position step as the same body and labels, and its digraph must
verify with the same extras: the position bodies the constructions build
and the label bodies from outside agree.

SMALL holds, per connected atlas base of 2-5 vertices, the digest over
all of its weight maps with weights 0-2 in product order.  RANDOM holds
the digests of `random_instances()`, in order: seeded random sparse bases
of 8-20 vertices with up to four weighted vertices.  HEAVY holds those of
`heavy_instances()`: complete bases of 6-10 vertices with weights up to 6,
where the blocks and the cliques placed for them are largest.
"""

import hashlib
import itertools
import json
import random

from corpus import connected_graphs, random_connected
from glgcomp import (Graph, HypothesisNotMet, glg_realization,
                     single_extra_realization, verify_realization)
from glgcomp.realization import _positions

SMALL = {
    "2:01": "c35d25107076d5cc", "3:01-02": "0423a30f05890bb9",
    "3:01-02-12": "ca5d3e384b782ea8", "4:03-13-23": "af34c8db9554c7cf",
    "4:01-03-12": "691df10ab19deabc", "4:03-12-13-23": "939c06c930fffbff",
    "4:01-03-12-23": "b85b8b7fa9fc3ae1",
    "4:01-02-03-12-23": "140c7572d6d9566f",
    "4:01-02-03-12-13-23": "0000e2dfecd8be7b",
    "5:04-14-24-34": "670d346a36d49bd5", "5:04-13-23-34": "22eff14031aae921",
    "5:01-04-12-23": "9ebecd84b8ad9ff3",
    "5:04-14-23-24-34": "7fa46052977ccce2",
    "5:01-02-04-12-23": "73388c6a1ba5c633",
    "5:04-12-13-23-34": "3d6cf615c160ef5a",
    "5:01-13-14-23-24": "3c58e9a164ce6841",
    "5:01-04-12-23-34": "c21ae03f6cca43b5",
    "5:01-12-13-14-23-24": "7bf5c83c4f0e3e92",
    "5:01-13-14-23-24-34": "ce6508de264a1c88",
    "5:01-04-14-23-24-34": "ffd6d844031bbb10",
    "5:01-03-04-12-23-34": "d4b0a59e803503be",
    "5:02-03-04-12-13-14": "315f4cbc8846e0f4",
    "5:04-12-13-14-23-24-34": "1157b7a6f1976f36",
    "5:03-04-13-14-23-24-34": "ce54300c338218e2",
    "5:01-04-12-13-14-23-34": "7eebbff921299e1c",
    "5:02-03-04-12-13-14-24": "c1ea38e443b553d1",
    "5:01-03-04-13-14-23-24-34": "3147fd490b05c3f7",
    "5:01-03-04-12-14-23-24-34": "77d11d9b002413b0",
    "5:01-03-04-12-13-14-23-24-34": "882aac11907c0682",
    "5:01-02-03-04-12-13-14-23-24-34": "5a32e7a00f2ada8e",
}

RANDOM = [
    "2486ff89f22e6fbe", "cdcc5e8df5281124", "3c4da6705a0bee31",
    "8aa54b94e6b27d41", "c65c65430bc2ede9", "c9ad6b8e330648bc",
    "04a1fdd81afc8adc", "5b98b69fb12203df", "e257a13adf318922",
    "cc88a3b3498c5955", "6ef40a66402ce833", "37754671d75856df",
    "8c87e5c5a5074362", "941b0bfc66927ecf", "8c3022f014f24b44",
    "dbcd202f6e086b03", "fbbaa862f7a90200", "29eaa7aaebb9e202",
    "e3088b50a135f5d9", "a2ad02e397218d1a", "32affb4a63baf478",
    "39514d3e460e1ab0", "704175ef653e1951", "216a4e6fd607bafa",
    "38327fb135f143d9", "f85c99c1a23cbb32", "a93f2346b4876a90",
    "dc71c99a0d5093e4", "1f1ea1c3673c2511", "c531a1bc178389c3",
]

HEAVY = [
    "a7d4920b2f8df47a", "cc923a80b2bfb97b", "8854dfd01980600f",
    "aeba3db68acd9a0c", "280dcf5a3e08b8ef", "c1e5695418045168",
    "63277ad231c809be", "53d23282724ffd37", "eb7b5e5cdef2349b",
    "9d05ebc146bd5348", "0a314be951a1c0ba", "1f1c50d4f7dd0d6d",
    "f97f7e6a83301123", "5022c51d8c2c56de", "6610dd6430cc8ed5",
    "7bc8b27f48baa4c7", "6cd1ff6c764e7838", "04fa0632b928dce4",
    "3ae5a0fc3564c0e0", "f3c270b1d84b141e", "ff92bd8ed857bc4e",
    "d2e8f978c6a3aa96", "2884e610a3c6ea3d", "76d9c61265461919",
    "339c89b0f076980a",
]


def certificate_line(cert):
    """The certificate's text, which must be json.dumps of its document
    byte for byte."""
    line = cert.json_text()
    assert json.dumps(json.loads(line), sort_keys=True) == line
    name = cert.labels.__getitem__
    entries = [(name(v), frozenset(map(name, clique)))
               for v, clique in cert.body]
    assert _positions(entries, cert.base) == (cert.body, cert.labels)
    assert verify_realization(cert.digraph, cert.base, cert.k).added == \
        cert.added
    return line


def certificate_lines(h, weights):
    """The two lines one instance adds to its digest."""
    lines = [certificate_line(glg_realization(h, weights).certificate)]
    try:
        cert = single_extra_realization(h, weights)
    except HypothesisNotMet:
        lines.append("-")
    else:
        lines.append(certificate_line(cert))
    return lines


def digest(lines):
    text = "".join(line + "\n" for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def base_key(h):
    return "%d:%s" % (len(h.vertices),
                      "-".join(a[1:] + b[1:] for a, b in sorted(h.edges)))


def random_instances():
    """30 sparse connected bases on r0..r(n-1), 8-20 vertices and n - 1 to
    n + 3 edges, each with 0-4 vertices of weight 1 or 2."""
    rng = random.Random(20231)
    out = []
    for i in range(30):
        n = 8 + i % 13
        h = random_connected(rng, n, rng.randint(n - 1, n + 3))
        weighted = rng.sample(h.vertices, rng.randint(0, 4))
        out.append((h, {v: rng.randint(1, 2) for v in sorted(weighted)}))
    return out


def heavy_instances():
    """25 complete bases on k0..k(n-1), five for each n of 6-10: one with
    every weight 6, then four with each weight drawn from 0-6."""
    rng = random.Random(20241)
    out = []
    for n in range(6, 11):
        verts = ["k%d" % i for i in range(n)]
        h = Graph(verts, itertools.combinations(verts, 2))
        out.append((h, dict.fromkeys(verts, 6)))
        for _ in range(4):
            out.append((h, {v: rng.randint(0, 6) for v in verts}))
    return out


def test_small_bases():
    got = {}
    for h in connected_graphs(5, min_edges=1):
        lines = []
        for values in itertools.product(range(3), repeat=len(h.vertices)):
            lines += certificate_lines(h, dict(zip(h.vertices, values)))
        got[base_key(h)] = digest(lines)
    assert got == SMALL


def test_random_sparse_bases():
    got = [digest(certificate_lines(h, w)) for h, w in random_instances()]
    assert got == RANDOM


def test_heavy_complete_bases():
    got = [digest(certificate_lines(h, w)) for h, w in heavy_instances()]
    assert got == HEAVY
