"""Golden behaviour fingerprints: the optimiser's output and proof trace must
stay byte-identical across changes that claim to keep behaviour.

Each hash is the sha256 of ``str(result.circuit)``, a newline, and
``result.trace.to_json()`` for ``random_clifford_circuit(width, depth, seed)``
optimised with the default configuration.  The hashes were recorded with the
matcher that scanned the whole interior for every LHS vertex, before the
compiled-plan matcher replaced it.  The width-5 and width-6 entries, where
the splits and both commutation phases do most work, were recorded later,
while the targeted Pauli phase still selected by `PauliMetric`.  The `LARGE`
entries, width 8, depth 160 and width 4, depth 320, pin behaviour at larger
sizes; they were recorded before the flow orders were merged into
`flow.least_order`.  The tests elsewhere that rerun the pinned circuits
under extra checks leave them out: with ``verify_each_step`` the width-4,
depth-320 run contracts its diagram after every step, about 3 s a step.

A change that alters a hash alters which rewrites the optimiser takes or how
they are recorded; update the table only when that is the intent, and say so
in the changelog.

`OUTPUT` pins the output alone: the sha256 of ``str(result.circuit)`` for
the same runs, recorded when each `GOLDEN` hash still held.  A change that
alters only how the trace is recorded re-pins `GOLDEN` and keeps `OUTPUT`.
"""

import hashlib

import pytest

from zxcliff.circuit import random_clifford_circuit

LARGE = {(8, 160, 0), (4, 320, 0)}

GOLDEN = {
    (1, 20, 0): "330f1b06f5cba988537b11b18e331330b3192167818350c1a7b112cbaef0310e",
    (1, 20, 1): "d5fa26fab07ee8a8fecf4b6ed1ded2a8ac2af5dc423e78983c6e565b4b8e7dd6",
    (1, 20, 2): "293f5c0c21169eaed1f4bdd641c53bc66a044de0ff18112bc640b1778f49cb48",
    (2, 20, 0): "c4e5824a20284b5f950355b7e386f8f438a1d7e0f830960f089c3575d32e0787",
    (2, 20, 1): "cc3b2a35cd0b701afaf770c5b9f850a50dfd3c692e7db7c1115597a2be9fc242",
    (2, 20, 2): "803a60480d2a3d0946d529e42142069f125563625ee761b3a293e0cc778fb5c0",
    (3, 20, 0): "267338d0df866c1790c9bbf68f965e5bbb5283aa976322e9f5a475e36abcd339",
    (3, 20, 1): "f56612ffc626cf5720e3a1517ed929b62043ea955755e2b81d93241ae697fb7d",
    (3, 20, 2): "68cf976c577feb5ada7eb6dd6d67b825cf41e069bddf58f0be2974c1285b3bfd",
    (4, 40, 0): "11612c808f9f9c26e900947fd4f8e7acccad6c7623c21794125e77108362821b",
    (4, 40, 1): "2957353584d77ca82a9217aac0c65ef891d508001d7bdb39faceb4ae0317c0b8",
    (5, 30, 0): "999cdef198643865bae6ea0c09f01b9dd4a1933c4e298fb9766273ef9346c1d2",
    (6, 40, 0): "b1e116439f3fd611a612bc3514bfad8d2b5d6ade86604d608249d0b4baec6d80",
    (8, 160, 0): "95d3fba0fbc6f266f0d321d8c36556b18b5e627aca7eb1a5d1f2b43a1b71a7f3",
    (4, 320, 0): "d25be2ad43983eebdb0fb591eb6020dea3057cdb5ad6ef9524fa3cf398433ec0",
}


@pytest.mark.parametrize("width,depth,seed", sorted(GOLDEN))
def test_behaviour_fingerprint(optimiser, width, depth, seed):
    res = optimiser.run(random_clifford_circuit(width, depth, seed))
    text = str(res.circuit) + "\n" + res.trace.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(width, depth, seed)]


OUTPUT = {
    (1, 20, 0): "b511a768367584ca7feaa16f52bb9e45b735ea09dd5699acd66868b95a32f67d",
    (1, 20, 1): "e62b38fc0882b6de0b0ee93b97c99173d8eab016f7bf9efbb1a19a9ab7860892",
    (1, 20, 2): "b15b413d219dc70da1eaed9d2ab2f8937dd4c7c56854149b035b6742563306d8",
    (2, 20, 0): "6c56ac15ad02d7d7b2601424e41ac1c83169602636c9a2febf5a81b2e8caf1a0",
    (2, 20, 1): "be12885e1dfe70350a919a7d454643647adfea2e5535d922d71465ca508d0c19",
    (2, 20, 2): "afd36156f45f25c9b269fb620971d17646cb79aa5ce55e08c8c6cfdbb00f9d44",
    (3, 20, 0): "7f93c2d83bfdeeef2195228899d17d73a6532445862cf7c1998075e5fe328084",
    (3, 20, 1): "22bd55eb5af0d3c7e1d074a2c44995099fbc68acb24570a04189c7c647e59bdb",
    (3, 20, 2): "88ce99147919123d4818357a81c1074866f68480f6c8d13ed72c5bcf6d1c722a",
    (4, 40, 0): "4559a8ef321ec10797bdce60bfc3a90118662e2018dde669cca3950a55d97a0b",
    (4, 40, 1): "4a0abd0da0c62153ee6d39b8eda25686d6658bf5a37a86b1be3b66e5b49045c0",
    (5, 30, 0): "713b28526883ee42c786200abae8c71dabebe76618974bb0adce58cc8585a1d3",
    (6, 40, 0): "0c4f668b5bb1028f6d1977852d5709302db3915b3b6ab1ac2458209472140395",
    (8, 160, 0): "d2733ec24ca3412e3ba8884d0d958d75bb28308ef6391de34b4b997a5d22f223",
    (4, 320, 0): "c1ff5645d29da53138085bcc22ad1b2452c58c4e2a70eb8a0489bb5108d4bb8c",
}


@pytest.mark.parametrize("width,depth,seed", sorted(OUTPUT))
def test_output_fingerprint(optimiser, width, depth, seed):
    res = optimiser.run(random_clifford_circuit(width, depth, seed))
    assert hashlib.sha256(str(res.circuit).encode()).hexdigest() == OUTPUT[(width, depth, seed)]
