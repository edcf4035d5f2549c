"""What a proxy carries on the wire: size budget, compatibility, laziness.

A proxy is meant to be a *small* reference, so its pickle has a byte budget
(``docs/ARCHITECTURE.md``, "What a proxy carries on the wire").  The compact
form must stay self-contained (a process that never saw the store resolves
it), exact (the consumer's ``store_config`` equals the producer's field for
field) and backward compatible (pickles written before it existed load).
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import pickle
import pickletools
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

import repro
from repro.connectors import ConnectorKey
from repro.connectors import FileConnector
from repro.connectors import LocalConnector
from repro.connectors import RedisConnector
from repro.connectors.globus import GlobusKey
from repro.connectors.multi import MultiKey
from repro.connectors.protocol import new_object_id
from repro.connectors.protocol import packed_object_id
from repro.dim import DIMKey
from repro.dim import DIMReplica
from repro.endpoint import EndpointKey
from repro.kvserver import launch_server
from repro.connectors.endpoint import EndpointConnector
from repro.connectors.globus import GlobusConnector
from repro.connectors.globus_service import reset_transfer_service
from repro.connectors.margo import MargoConnector
from repro.connectors.ucx import UCXConnector
from repro.connectors.zmq import ZMQConnector
from repro.dim import reset_nodes
from repro.proxy import Proxy
from repro.proxy import SimpleFactory
from repro.proxy import borrow
from repro.proxy import drop
from repro.proxy import extract
from repro.proxy import get_factory
from repro.proxy import resolve
from repro.proxy.owned import RefProxy
from repro.serialize import serialize
from repro.serialize import to_bytes
from repro.store import FutureFactory
from repro.store import Store
from repro.store import StoreConfig
from repro.store import StoreFactory
from repro.store import get_store
from repro.store import unregister_store

#: Bytes a pickled plain proxy may cost (BENCHMARK.json: ``proxy_wire_bytes``).
PROXY_WIRE_BUDGET = 200
#: Bytes each further proxy of the same store adds to a pickled list.
PER_PROXY_IN_LIST = 45
#: A ``file://`` proxy carries its store directory; the budget holds for a
#: directory of this many bytes, and a longer temporary directory (another
#: user name or ``TMPDIR``) adds its excess.
BUDGET_DIR_BYTES = 72


# --------------------------------------------------------------------------- #
# (a) byte budget, (b) list memoization
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    'url',
    [
        'local:///wire-local',
        'file://{tmp_path}/wire-data?name=wire-file',
        'redis://127.0.0.1/wire-redis?launch=1',
    ],
    ids=['local', 'file', 'redis'],
)
def test_pickled_proxy_fits_the_byte_budget(tmp_path, url):
    store = Store.from_url(url.format(tmp_path=tmp_path))
    budget = PROXY_WIRE_BUDGET
    if url.startswith('file'):
        budget += max(0, len(f'{tmp_path}/wire-data') - BUDGET_DIR_BYTES)
    try:
        obj = {'id': 1 << 24, 'blob': bytes(1000)}
        for evict in (False, True):
            wire = pickle.dumps(store.proxy(obj, evict=evict))
            assert len(wire) <= budget, len(wire)
            assert pickle.loads(wire) == obj
        wire = pickle.dumps(store.proxy_from_key(store.put(obj)))
        assert len(wire) <= budget, len(wire)
        owner = store.owned_proxy(obj)
        assert len(pickle.dumps(owner)) <= budget, len(pickle.dumps(owner))
        drop(owner)
    finally:
        store.close(clear=True)


def _globals(wire: bytes) -> list[str]:
    """The ``module.name`` of every global a pickle loads, in order."""
    strings: list[str] = []
    names = []
    for opcode, arg, _ in pickletools.genops(wire):
        if opcode.name in ('SHORT_BINUNICODE', 'BINUNICODE'):
            strings.append(arg)
        elif opcode.name == 'STACK_GLOBAL':
            names.append('.'.join(strings[-2:]))
    return names


def test_a_proxy_pickles_to_one_call(local_store):
    # Only the loader is named: no Proxy/RefProxy class, no key class.
    plain = local_store.proxy('plain')
    owner = local_store.owned_proxy('owned')
    assert _globals(pickle.dumps(plain)) == ['repro.store.factory._proxy']
    assert _globals(pickle.dumps(owner)) == ['repro.store.factory._ref']
    assert _globals(pickle.dumps(borrow(owner))) == ['repro.store.factory._ref']
    assert type(pickle.loads(pickle.dumps(plain))) is Proxy
    assert type(pickle.loads(pickle.dumps(owner))) is RefProxy
    assert pickle.loads(pickle.dumps(owner)) == 'owned'
    # A factory subclass, or a proxy type the factory does not know, keeps
    # the two-call form.
    future = local_store.future().proxy()
    assert _globals(pickle.dumps(future)) == [
        'repro.proxy.proxy.Proxy', 'repro.store.factory._load_as',
        'repro.store.future.FutureFactory',
    ]
    factory = get_factory(plain)
    custom = pickle.loads(pickle.dumps(_CustomProxy(factory)))
    assert type(custom) is _CustomProxy and custom == 'plain'
    assert _globals(pickle.dumps(_CustomProxy(factory)))[-1] == 'repro.store.factory._load'
    # A proxy whose factory is itself a proxy is pickled without resolving it.
    nested = Proxy(Proxy(SimpleFactory(functools.partial(str, 'nested'))))
    restored = pickle.loads(pickle.dumps(nested))
    assert not get_factory(nested).__resolved__
    assert restored == 'nested'
    drop(owner)


class _CustomProxy(Proxy):
    __slots__ = ()


def test_non_default_options_ship_only_what_differs(tmp_path):
    plain = Store.from_url(f'file://{tmp_path}/a?name=wire-plain')
    tuned = Store.from_url(
        f'file://{tmp_path}/a?name=wire-tuned&cache_size=64&metrics=1',
    )
    try:
        base = len(pickle.dumps(plain.proxy('x')))
        extra = len(pickle.dumps(tuned.proxy('x'))) - base
        # 'cache_size' + 64; metrics rides in the flags byte.
        assert 0 < extra <= 20
        restored = get_factory(pickle.loads(pickle.dumps(tuned.proxy('x'))))
        assert restored.store_config == tuned.config()
        assert restored.store_config.cache_size == 64
        assert restored.store_config.metrics is True
    finally:
        plain.close(clear=True)
        tuned.close(clear=True)


def test_a_list_of_proxies_shares_one_header(local_store):
    proxies = [local_store.proxy(i, cache_local=False) for i in range(100)]
    one = len(pickle.dumps(proxies[:1]))
    many = len(pickle.dumps(proxies))
    assert many <= one + 99 * PER_PROXY_IN_LIST, (one, many)
    assert [extract(p) for p in pickle.loads(pickle.dumps(proxies))] == list(range(100))


def test_plain_factory_pickle_has_no_async_state():
    factory = SimpleFactory('value')
    factory.resolve_async()
    assert factory() == 'value'
    wire = pickle.dumps(factory)
    assert b'_async' not in wire
    restored = pickle.loads(wire)
    assert restored._async_thread is None
    restored.resolve_async()
    assert restored() == 'value'


# --------------------------------------------------------------------------- #
# (c) pickles written by the parent commit (PR 16) still load and resolve
# --------------------------------------------------------------------------- #
# Exact ``pickle.dumps(proxy)`` bytes of ``store.proxy({'answer': 42})``,
# ``store.future(timeout=5.0).proxy()`` and ``store.owned_proxy([1, 2, 3])``
# for ``Store.from_url('file:///tmp/repro-legacy-proxy-fixture'
# '?name=legacy-fixture&cache_size=8')`` at commit 01ac661.
LEGACY_DIR = '/tmp/repro-legacy-proxy-fixture'
LEGACY_PLAIN = bytes.fromhex(
    '800495bc020000000000008c11726570726f2e70726f78792e70726f7879948c'
    '0550726f78799493948c13726570726f2e73746f72652e666163746f7279948c'
    '0c53746f7265466163746f72799493942981947d94288c0d5f6173796e635f74'
    '6872656164944e8c0d5f6173796e635f726573756c74944e8c0c5f6173796e63'
    '5f6572726f72944e8c036b6579948c19726570726f2e636f6e6e6563746f7273'
    '2e70726f746f636f6c948c0c436f6e6e6563746f724b65799493948c20633266'
    '3961623438386365623439653761336132356662363262393861333939948c04'
    '66696c6594869481948c0c73746f72655f636f6e666967948c12726570726f2e'
    '73746f72652e636f6e666967948c0b53746f7265436f6e666967949394298194'
    '7d94288c046e616d65948c0e6c65676163792d66697874757265948c09636f6e'
    '6e6563746f72948c23726570726f2e636f6e6e6563746f72732e66696c653a46'
    '696c65436f6e6e6563746f72948c10636f6e6e6563746f725f636f6e66696794'
    '7d94288c0973746f72655f646972948c1f2f746d702f726570726f2d6c656761'
    '63792d70726f78792d66697874757265948c096d6d61705f726561649488758c'
    '0a63616368655f73697a65944b088c0f63616368655f6d61785f627974657394'
    '4e8c076d65747269637394898c06736368656d659468108c11637573746f6d5f'
    '73657269616c697a657294898c13637573746f6d5f646573657269616c697a65'
    '7294898c0f636f616c657363655f77726974657394898c12636f616c65736365'
    '5f6d61785f6279746573944a000010008c10636f616c657363655f6d61785f6f'
    '7073944b408c11636f616c657363655f646561646c696e6594473f847ae147ae'
    '147b75628c05657669637494898c11646573657269616c697a65725f6e616d65'
    '944e8c10636f6e6e6563746f725f6b7761726773947d948c056f776e65649489'
    '7562859452942e',
)
LEGACY_FUTURE = bytes.fromhex(
    '800495eb020000000000008c11726570726f2e70726f78792e70726f7879948c'
    '0550726f78799493948c12726570726f2e73746f72652e667574757265948c0d'
    '467574757265466163746f72799493942981947d94288c0d5f6173796e635f74'
    '6872656164944e8c0d5f6173796e635f726573756c74944e8c0c5f6173796e63'
    '5f6572726f72944e8c036b6579948c19726570726f2e636f6e6e6563746f7273'
    '2e70726f746f636f6c948c0c436f6e6e6563746f724b65799493948c20373465'
    '6132613564393631613466663738303162303537333834343634373766948c04'
    '66696c6594869481948c0c73746f72655f636f6e666967948c12726570726f2e'
    '73746f72652e636f6e666967948c0b53746f7265436f6e666967949394298194'
    '7d94288c046e616d65948c0e6c65676163792d66697874757265948c09636f6e'
    '6e6563746f72948c23726570726f2e636f6e6e6563746f72732e66696c653a46'
    '696c65436f6e6e6563746f72948c10636f6e6e6563746f725f636f6e66696794'
    '7d94288c0973746f72655f646972948c1f2f746d702f726570726f2d6c656761'
    '63792d70726f78792d66697874757265948c096d6d61705f726561649488758c'
    '0a63616368655f73697a65944b088c0f63616368655f6d61785f627974657394'
    '4e8c076d65747269637394898c06736368656d659468108c11637573746f6d5f'
    '73657269616c697a657294898c13637573746f6d5f646573657269616c697a65'
    '7294898c0f636f616c657363655f77726974657394898c12636f616c65736365'
    '5f6d61785f6279746573944a000010008c10636f616c657363655f6d61785f6f'
    '7073944b408c11636f616c657363655f646561646c696e6594473f847ae147ae'
    '147b75628c05657669637494898c11646573657269616c697a65725f6e616d65'
    '944e8c10636f6e6e6563746f725f6b7761726773947d948c056f776e65649489'
    '8c10706f6c6c696e675f696e74657276616c94473fa999999999999a8c077469'
    '6d656f7574944740140000000000007562859452942e',
)
LEGACY_OWNED = bytes.fromhex(
    '800495bf020000000000008c11726570726f2e70726f78792e6f776e6564948c'
    '0852656650726f78799493948c13726570726f2e73746f72652e666163746f72'
    '79948c0c53746f7265466163746f72799493942981947d94288c0d5f6173796e'
    '635f746872656164944e8c0d5f6173796e635f726573756c74944e8c0c5f6173'
    '796e635f6572726f72944e8c036b6579948c19726570726f2e636f6e6e656374'
    '6f72732e70726f746f636f6c948c0c436f6e6e6563746f724b65799493948c20'
    '3836666234623931323633383437616462393966646439613334376532663832'
    '948c0466696c6594869481948c0c73746f72655f636f6e666967948c12726570'
    '726f2e73746f72652e636f6e666967948c0b53746f7265436f6e666967949394'
    '2981947d94288c046e616d65948c0e6c65676163792d66697874757265948c09'
    '636f6e6e6563746f72948c23726570726f2e636f6e6e6563746f72732e66696c'
    '653a46696c65436f6e6e6563746f72948c10636f6e6e6563746f725f636f6e66'
    '6967947d94288c0973746f72655f646972948c1f2f746d702f726570726f2d6c'
    '65676163792d70726f78792d66697874757265948c096d6d61705f7265616494'
    '88758c0a63616368655f73697a65944b088c0f63616368655f6d61785f627974'
    '6573944e8c076d65747269637394898c06736368656d659468108c1163757374'
    '6f6d5f73657269616c697a657294898c13637573746f6d5f646573657269616c'
    '697a657294898c0f636f616c657363655f77726974657394898c12636f616c65'
    '7363655f6d61785f6279746573944a000010008c10636f616c657363655f6d61'
    '785f6f7073944b408c11636f616c657363655f646561646c696e6594473f847a'
    'e147ae147b75628c05657669637494898c11646573657269616c697a65725f6e'
    '616d65944e8c10636f6e6e6563746f725f6b7761726773947d948c056f776e65'
    '6494897562859452942e',
)
LEGACY_CONFIG = StoreConfig(
    name='legacy-fixture',
    connector='repro.connectors.file:FileConnector',
    connector_config={'store_dir': LEGACY_DIR, 'mmap_read': True},
    cache_size=8,
    scheme='file',
)


# Exact ``pickle.dumps`` bytes of proxies of the same store at commit
# 032bad6, the two-call form: the proxy class as a global around a
# ``_load`` (or ``_load_as``) tuple, ``mmap_read`` spelled out.
TWO_CALL_PLAIN = bytes.fromhex(  # store.proxy({'answer': 42}, cache_local=False)
    '800495d6000000000000008c11726570726f2e70726f78792e70726f7879948c'
    '0550726f78799493948c13726570726f2e73746f72652e666163746f7279948c'
    '055f6c6f6164949394284b844e8c203631363437363964376239663430666238'
    '336465316333303862333235666461948c0466696c65948c0e6c65676163792d'
    '666978747572659468077d94288c0973746f72655f646972948c1f2f746d702f'
    '726570726f2d6c65676163792d70726f78792d66697874757265948c096d6d61'
    '705f726561649488758c0a63616368655f73697a65944b087494529485945294'
    '2e'
)
TWO_CALL_EVICT = bytes.fromhex(  # store.proxy('read once', evict=True, cache_local=False)
    '800495d6000000000000008c11726570726f2e70726f78792e70726f7879948c'
    '0550726f78799493948c13726570726f2e73746f72652e666163746f7279948c'
    '055f6c6f6164949394284b854e8c203331323139383862353939643461356462'
    '633366303631666261643034396430948c0466696c65948c0e6c65676163792d'
    '666978747572659468077d94288c0973746f72655f646972948c1f2f746d702f'
    '726570726f2d6c65676163792d70726f78792d66697874757265948c096d6d61'
    '705f726561649488758c0a63616368655f73697a65944b087494529485945294'
    '2e'
)
TWO_CALL_FUTURE = bytes.fromhex(  # store.future(timeout=5.0).proxy()
    '80049515010000000000008c11726570726f2e70726f78792e70726f7879948c'
    '0550726f78799493948c13726570726f2e73746f72652e666163746f7279948c'
    '085f6c6f61645f6173949394288c12726570726f2e73746f72652e6675747572'
    '65948c0d467574757265466163746f72799493944b847d948c0774696d656f75'
    '7494474014000000000000738c20616232633631663039626130343563636262'
    '6362336661656634333934663661948c0466696c65948c0e6c65676163792d66'
    '69787475726594680c7d94288c0973746f72655f646972948c1f2f746d702f72'
    '6570726f2d6c65676163792d70726f78792d66697874757265948c096d6d6170'
    '5f726561649488758c0a63616368655f73697a65944b0874945294859452942e'
)
TWO_CALL_OWNED = bytes.fromhex(  # store.owned_proxy([1, 2, 3], cache_local=False)
    '800495d9000000000000008c11726570726f2e70726f78792e6f776e6564948c'
    '0852656650726f78799493948c13726570726f2e73746f72652e666163746f72'
    '79948c055f6c6f6164949394284b844e8c206131316564663639396234663461'
    '653738333038373364386333616530666465948c0466696c65948c0e6c656761'
    '63792d666978747572659468077d94288c0973746f72655f646972948c1f2f74'
    '6d702f726570726f2d6c65676163792d70726f78792d66697874757265948c09'
    '6d6d61705f726561649488758c0a63616368655f73697a65944b087494529485'
    '9452942e'
)


@pytest.fixture()
def legacy_dir():
    """The directory the legacy pickles point at, with a writer into it."""
    writer = FileConnector(LEGACY_DIR)
    yield writer
    store = unregister_store('legacy-fixture')
    if store is not None:
        store.close()
    writer.close()
    shutil.rmtree(LEGACY_DIR, ignore_errors=True)


@pytest.mark.parametrize(
    ('wire', 'proxy_type', 'factory_type', 'object_id', 'value'),
    [
        (LEGACY_PLAIN, Proxy, StoreFactory,
         'c2f9ab488ceb49e7a3a25fb62b98a399', {'answer': 42}),
        (LEGACY_FUTURE, Proxy, FutureFactory,
         '74ea2a5d961a4ff7801b05738446477f', 'produced later'),
        (LEGACY_OWNED, RefProxy, StoreFactory,
         '86fb4b91263847adb99fdd9a347e2f82', [1, 2, 3]),
    ],
    ids=['plain', 'future', 'owned'],
)
def test_legacy_pickles_still_load_and_resolve(
    legacy_dir, wire, proxy_type, factory_type, object_id, value,
):
    proxy = pickle.loads(wire)
    assert type(proxy) is proxy_type
    factory = get_factory(proxy)
    assert type(factory) is factory_type
    assert factory.key == ConnectorKey(object_id, 'file')
    assert factory.store_name == 'legacy-fixture'
    assert factory.store_config == LEGACY_CONFIG
    assert (factory.evict, factory.owned) == (False, False)
    assert factory.connector_kwargs == {} and factory.deserializer_name is None
    if factory_type is FutureFactory:
        assert (factory.polling_interval, factory.timeout) == (0.05, 5.0)
    # No store of that name exists here: resolving rebuilds it from the
    # legacy config.
    assert get_store('legacy-fixture') is None
    legacy_dir.set(factory.key, to_bytes(serialize(value)))
    assert proxy == value
    assert get_store('legacy-fixture').cache.maxsize == 8
    # A legacy pickle re-pickles to the compact form and stays equivalent.
    again = pickle.loads(pickle.dumps(proxy))
    assert len(pickle.dumps(proxy)) < len(wire) // 2
    assert get_factory(again).store_config == LEGACY_CONFIG
    assert type(get_factory(again)) is factory_type
    assert again == value


@pytest.mark.parametrize(
    ('wire', 'proxy_type', 'factory_type', 'object_id', 'value', 'evict'),
    [
        (TWO_CALL_PLAIN, Proxy, StoreFactory,
         '6164769d7b9f40fb83de1c308b325fda', {'answer': 42}, False),
        (TWO_CALL_EVICT, Proxy, StoreFactory,
         '3121988b599d4a5dbc3f061fbad049d0', 'read once', True),
        (TWO_CALL_FUTURE, Proxy, FutureFactory,
         'ab2c61f09ba045ccbbcb3faef4394f6a', 'produced later', False),
        (TWO_CALL_OWNED, RefProxy, StoreFactory,
         'a11edf699b4f4ae7830873d8c3ae0fde', [1, 2, 3], False),
    ],
    ids=['plain', 'evict', 'future', 'owned'],
)
def test_two_call_pickles_still_load_and_resolve(
    legacy_dir, wire, proxy_type, factory_type, object_id, value, evict,
):
    proxy = pickle.loads(wire)
    assert type(proxy) is proxy_type
    factory = get_factory(proxy)
    assert type(factory) is factory_type
    assert factory.key == ConnectorKey(object_id, 'file')
    assert factory.store_config == LEGACY_CONFIG
    assert (factory.evict, factory.owned) == (evict, False)
    again = pickle.dumps(proxy)
    # Re-pickled: one call for a plain factory; the connector config stays
    # exactly as it was written, ``mmap_read`` included.
    if factory_type is StoreFactory:
        assert len(again) < len(wire)
    assert get_factory(pickle.loads(again)).store_config == LEGACY_CONFIG
    assert type(pickle.loads(again)) is proxy_type
    assert get_store('legacy-fixture') is None
    legacy_dir.set(factory.key, to_bytes(serialize(value)))
    assert proxy == value
    assert legacy_dir.exists(factory.key) is not evict
    assert get_store('legacy-fixture').cache.maxsize == 8


# Exact ``pickle.dumps`` bytes at commit c42079a, before object ids were
# packed: ``store.proxy({'id': 1 << 24, 'blob': bytes(1000)}, evict=True)``
# of ``Store.from_url('redis://127.0.0.1:42827/e2e-w')`` (the 119-byte
# proxy of the e2e benchmark's ``rt_small``), and a ``Proxy`` of a
# ``StoreFactory`` of that store whose plain key has a non-str id.
ONE_CALL_REDIS = bytes.fromhex(
    '8004956c000000000000008c13726570726f2e73746f72652e666163746f7279'
    '948c065f70726f7879949394284b854e8c206466376564653462316165656663'
    '383237383035653139666563346362356362948c057265646973948c05653265'
    '2d779468047d948c04706f7274944d4ba773749452942e'
)
ONE_CALL_BYTES_ID = bytes.fromhex(
    '8004955c000000000000008c13726570726f2e73746f72652e666163746f7279'
    '948c065f70726f7879949394284b854e43100101010101010101010101010101'
    '0101948c057265646973948c056532652d779468047d948c04706f7274944d4b'
    'a773749452942e'
)


@pytest.fixture()
def e2e_w_store():
    """A live ``redis://`` store under the name the one-call pickles carry."""
    server = launch_server()
    store = Store('e2e-w', RedisConnector('127.0.0.1', server.port))
    try:
        yield store
    finally:
        store.close()
        server.stop()


@pytest.mark.parametrize(
    ('wire', 'object_id'),
    [
        (ONE_CALL_REDIS, 'df7ede4b1aeefc827805e19fec4cb5cb'),
        (ONE_CALL_BYTES_ID, b'\x01' * 16),
    ],
    ids=['hex-id', 'bytes-id'],
)
def test_one_call_pickles_still_load_and_resolve(e2e_w_store, wire, object_id):
    assert len(ONE_CALL_REDIS) == 119
    proxy = pickle.loads(wire)
    factory = get_factory(proxy)
    assert type(proxy) is Proxy and type(factory) is StoreFactory
    assert factory.key == ConnectorKey(object_id, 'redis')
    assert type(factory.key.object_id) is type(object_id)
    assert factory.store_config.connector_config == {'port': 42827}
    assert (factory.evict, factory.owned) == (True, False)
    # Re-pickled, the hex id packs to its 16 bytes; a bytes id cannot.
    again = pickle.dumps(proxy)
    assert len(again) == len(wire) - (15 if isinstance(object_id, str) else 0)
    assert get_factory(pickle.loads(again)).key == factory.key
    # The registered store of that name serves it (registry hit).
    value = {'id': 1 << 24, 'blob': bytes(1000)}
    e2e_w_store.connector.set(factory.key, to_bytes(serialize(value)))
    assert proxy == value
    assert not e2e_w_store.connector.exists(factory.key)


# --------------------------------------------------------------------------- #
# (c') object ids: a minted id travels as its 16 bytes, any other exactly
# --------------------------------------------------------------------------- #
_MINTED = new_object_id()
OBJECT_IDS = {
    'minted': _MINTED,
    'upper-case': _MINTED.upper(),
    '31-chars': _MINTED[:31],
    '33-chars': _MINTED + 'a',
    'non-hex': 'z' * 32,
    'bytes': bytes.fromhex(_MINTED),
    'int': 1 << 24,
}


def _key_types(object_id):
    """Every key type a built-in connector hands out, around ``object_id``."""
    return {
        'connector': ConnectorKey(object_id, 'redis'),
        'multi': MultiKey('fast', ConnectorKey(object_id, 'local')),
        'dim': DIMKey(
            object_id, 'n0', 'tcp', ('127.0.0.1', 7000),
            replicas=(DIMReplica('n1', 'tcp', ('127.0.0.1', 7001)),),
        ),
        'globus': GlobusKey(object_id, ('task-1',)),
        'endpoint': EndpointKey(object_id, '0' * 32),
        'bare-tuple': (object_id, 'redis'),
    }


@pytest.mark.parametrize('id_name', sorted(OBJECT_IDS))
def test_every_object_id_round_trips_exactly(local_store, id_name):
    object_id = OBJECT_IDS[id_name]
    for key in _key_types(object_id).values():
        for evict in (False, True):
            factory = StoreFactory(key, local_store.config(), evict=evict)
            for restored in (
                pickle.loads(pickle.dumps(factory)),
                get_factory(pickle.loads(pickle.dumps(Proxy(factory)))),
                get_factory(pickle.loads(pickle.dumps(RefProxy(factory)))),
            ):
                assert restored.key == key and type(restored.key) is type(key)
                assert type(_object_id_of(restored.key)) is type(object_id)
                assert restored.evict is evict


def _object_id_of(key):
    return key.inner_key.object_id if type(key) is MultiKey else key[0]


def test_only_an_exact_hex_id_is_packed(local_store):
    def wire(object_id):
        return pickle.dumps(local_store.proxy_from_key(ConnectorKey(object_id, 'local')))

    assert packed_object_id(_MINTED) == bytes.fromhex(_MINTED)
    assert bytes.fromhex(_MINTED) in wire(_MINTED)
    assert _MINTED.encode() not in wire(_MINTED)
    # 34 bytes of str become 18 of bytes, and the flags int takes one more.
    assert len(wire(_MINTED)) == len(wire(_MINTED.upper())) - 15
    for name, object_id in OBJECT_IDS.items():
        if name != 'minted':
            assert packed_object_id(object_id) is None, name
    assert packed_object_id(_MINTED[:30]) == bytes.fromhex(_MINTED[:30])


# --------------------------------------------------------------------------- #
# (d) self-contained: a fresh process with nothing registered resolves it
# --------------------------------------------------------------------------- #
_CHILD = '''
import pickle, sys, warnings
import repro
from repro.proxy import get_factory
assert repro.store.list_stores() == []
with open(sys.argv[1], 'rb') as f:
    proxy, config = pickle.load(f)
factory = get_factory(proxy)
assert factory.store_name == config.name
assert repro.store.get_store(config.name) is None
with warnings.catch_warnings():
    warnings.simplefilter('error')
    assert proxy == {'x': list(range(50))}, proxy
store = repro.store.get_store(config.name)
assert store is not None and store is factory.get_store()
assert factory.store_config == config, (factory.store_config, config)
assert store.config() == config, (store.config(), config)
print('max_bytes', store.cache.max_bytes, 'maxsize', store.cache.maxsize)
'''


def test_fresh_process_resolves_a_compact_proxy(tmp_path):
    store = Store.from_url(
        f'file://{tmp_path}/data?name=wire-fresh&cache_size=3'
        '&cache_max_bytes=123456',
    )
    try:
        proxy = store.proxy({'x': list(range(50))}, cache_local=False)
        assert len(pickle.dumps(proxy)) <= PROXY_WIRE_BUDGET + 40  # tmp path
        message = tmp_path / 'message.pkl'
        message.write_bytes(pickle.dumps((proxy, store.config())))
        src = os.path.join(os.path.dirname(os.path.dirname(repro.__file__)))
        result = subprocess.run(
            [sys.executable, '-c', _CHILD, str(message)],
            env={**os.environ, 'PYTHONPATH': src},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # The rebuilt store honours every option, not just cache_size.
        assert result.stdout.split() == ['max_bytes', '123456', 'maxsize', '3']
    finally:
        store.close(clear=True)


def test_store_rebuilt_from_a_proxy_keeps_every_option(tmp_path):
    producer = Store(
        'wire-rebuilt',
        FileConnector(str(tmp_path / 'data')),
        cache_size=5,
        cache_max_bytes=4096,
        serializer=lambda obj: serialize(obj),
    )
    wire = pickle.dumps(producer.proxy([1, 2, 3], cache_local=False))
    expected = producer.config()
    producer.close()  # unregisters; the data stays on disk
    proxy = pickle.loads(wire)
    with pytest.warns(UserWarning, match='custom serializer'):
        assert proxy == [1, 2, 3]
    rebuilt = get_store('wire-rebuilt')
    try:
        assert rebuilt is not producer
        assert rebuilt.cache.max_bytes == 4096
        assert rebuilt.cache.maxsize == 5
        assert get_factory(proxy).store_config == expected
    finally:
        rebuilt.close(clear=True)


# --------------------------------------------------------------------------- #
# One config per Store, lazy consumer side
# --------------------------------------------------------------------------- #
def test_store_config_is_one_shared_frozen_instance(local_store):
    config = local_store.config()
    assert local_store.config() is config
    a, b = local_store.proxy('a'), local_store.proxy_from_key(local_store.put('b'))
    future_proxy = local_store.future().proxy()
    for proxy in (a, b, future_proxy):
        assert get_factory(proxy).store_config is config
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.name = 'other'  # type: ignore[misc]
    # A config pickled on its own carries its fields, not the cached wire form.
    assert pickle.loads(pickle.dumps(config)) == config
    assert b'_wire' not in pickle.dumps(config)


def test_config_follows_the_connector_after_join_node():
    servers = [launch_server() for _ in range(3)]
    nodes = [f'127.0.0.1:{server.port}' for server in servers]
    store = Store('wire-cluster', RedisConnector(nodes=nodes[:2], replicas=2))
    try:
        before = store.config()
        assert store.config() is before
        assert get_factory(store.proxy('early')).store_config is before
        store.connector.join_node(nodes[2])
        after = store.config()
        assert after is not before and store.config() is after
        assert before.connector_config['nodes'] == nodes[:2]
        assert after.connector_config['nodes'] == nodes
        proxy = pickle.loads(pickle.dumps(store.proxy('late')))
        assert get_factory(proxy).store_config.connector_config['nodes'] == nodes
        assert proxy == 'late'
    finally:
        store.close()
        for server in servers:
            server.stop()


def test_a_proxy_does_not_ask_the_connector_for_its_config(local_store, monkeypatch):
    config = local_store.config()
    calls = []
    real = local_store.connector.config
    monkeypatch.setattr(
        local_store.connector, 'config', lambda: calls.append(1) or real(),
    )
    proxies = [
        local_store.proxy('a'),
        local_store.proxy_from_key(local_store.put('b')),
        local_store.future().proxy(),
    ]
    assert calls == []
    assert all(get_factory(p).store_config is config for p in proxies)


def test_unpickled_factory_never_builds_a_config_on_a_registry_hit(
    local_store, monkeypatch,
):
    def boom(*args, **kwargs):
        raise AssertionError('StoreConfig materialised on the fast path')

    wire = pickle.dumps(local_store.proxy({'k': 'v'}, cache_local=False))
    monkeypatch.setattr(StoreConfig, 'from_wire', boom)
    proxy = pickle.loads(wire)
    factory = get_factory(proxy)
    assert factory.store_name == local_store.name
    assert factory.get_store() is local_store
    assert proxy == {'k': 'v'}
    # ... as does forwarding the still-unresolved reference onwards.
    assert pickle.dumps(pickle.loads(wire)) == wire
    monkeypatch.undo()
    assert factory.store_config == local_store.config()


# --------------------------------------------------------------------------- #
# Who travels with an import path, and as which class
# --------------------------------------------------------------------------- #
class _ThirdPartyConnector(LocalConnector):
    scheme = 'wire-third-party'


class _TaggedFactory(StoreFactory):
    tag = 'untagged'

    def _wire_attrs(self):
        attrs = super()._wire_attrs()
        if self.tag != _TaggedFactory.tag:
            attrs['tag'] = self.tag
        return attrs


def test_only_builtin_schemes_drop_the_import_path():
    builtin = Store('wire-builtin', LocalConnector('wire-builtin'), register=False)
    third = Store('wire-third', _ThirdPartyConnector('wire-third'), register=False)
    try:
        assert 'connector' not in builtin.config().wire()[1]
        # A fresh process only knows the third-party scheme after importing
        # its module, which is what the import path is for.
        assert third.config().wire()[1][3:] == (
            'connector', f'{__name__}:_ThirdPartyConnector',
        )
        for store in (builtin, third):
            factory = pickle.loads(pickle.dumps(StoreFactory('k', store.config())))
            assert factory.store_config == store.config()
    finally:
        builtin.close(clear=True)
        third.close(clear=True)
        repro.connectors.unregister_connector('wire-third-party')


def test_factory_subclasses_travel_as_themselves(local_store):
    config = local_store.config()
    tagged = _TaggedFactory(ConnectorKey('a', 'local'), config)
    assert type(pickle.loads(pickle.dumps(tagged))) is _TaggedFactory
    assert pickle.loads(pickle.dumps(tagged)).tag == 'untagged'
    tagged.tag = 'blue'
    restored = pickle.loads(pickle.dumps(tagged))
    assert (type(restored), restored.tag) == (_TaggedFactory, 'blue')

    default = FutureFactory(ConnectorKey('a', 'local'), config)
    tuned = FutureFactory(
        ConnectorKey('a', 'local'), config, polling_interval=0.5, timeout=None,
    )
    assert len(pickle.dumps(default)) < len(pickle.dumps(tuned))
    for factory in (default, tuned):
        restored = pickle.loads(pickle.dumps(factory))
        assert type(restored) is FutureFactory
        assert restored.polling_interval == factory.polling_interval
        assert restored.timeout == factory.timeout


# --------------------------------------------------------------------------- #
# (f) the compact form is exact for every field combination
# --------------------------------------------------------------------------- #
_names = st.text(min_size=1, max_size=12)
_optional_ints = st.one_of(st.none(), st.integers(0, 1 << 40))
_configs = st.builds(
    StoreConfig,
    name=_names,
    connector=st.one_of(
        st.none(),
        st.sampled_from([
            'repro.connectors.file:FileConnector',
            'repro.connectors.local:LocalConnector',
            'some.package:ThirdParty',
        ]),
    ),
    connector_config=st.dictionaries(
        _names, st.one_of(st.integers(), _names, st.lists(_names, max_size=3)),
        max_size=4,
    ),
    cache_size=st.integers(0, 4096),
    cache_max_bytes=_optional_ints,
    metrics=st.booleans(),
    scheme=st.one_of(st.none(), st.sampled_from(['file', 'local', 'no-such'])),
    custom_serializer=st.booleans(),
    custom_deserializer=st.booleans(),
)
_object_ids = st.one_of(
    _names,
    st.binary(max_size=20).map(bytes.hex),
    st.binary(max_size=20).map(lambda raw: raw.hex().upper()),
    st.binary(max_size=20),
    st.integers(),
)
_keys = st.one_of(
    st.builds(ConnectorKey, _object_ids, _names),
    st.builds(MultiKey, _names, st.builds(ConnectorKey, _names, _names)),
    st.tuples(_names, st.integers()),
    _names,
)
_lifetimes = st.sampled_from([(False, False), (True, False), (False, True)])


@settings(max_examples=200, deadline=None)
@given(
    config=_configs,
    key=_keys,
    lifetime=_lifetimes,
    connector_kwargs=st.dictionaries(_names, st.lists(_names, max_size=2), max_size=2),
)
def test_wire_form_round_trips_exactly(
    config, key, lifetime, connector_kwargs,
):
    evict, owned = lifetime
    factory = StoreFactory(
        key,
        config,
        evict=evict,
        owned=owned,
        connector_kwargs=connector_kwargs,
    )
    once = pickle.loads(pickle.dumps(factory))
    # The second generation is pickled from the kept tuple, config unbuilt.
    twice = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(factory))))
    for restored in (once, twice):
        assert type(restored) is StoreFactory
        assert restored.key == key and type(restored.key) is type(key)
        assert restored.store_name == config.name
        assert restored.store_config == config
        assert dataclasses.asdict(restored.store_config) == dataclasses.asdict(config)
        assert len(dataclasses.fields(restored.store_config)) == 9
        assert (restored.evict, restored.owned) == (evict, owned)
        assert restored.connector_kwargs == connector_kwargs
        assert restored == factory and hash(restored) == hash(factory)
        assert not any(name.startswith('_async') for name in vars(restored))


def test_the_budget_survives_warnings_as_errors(local_store):
    """Producing and consuming a compact proxy raises no warning of its own."""
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        proxy = pickle.loads(pickle.dumps(local_store.proxy('quiet')))
        resolve(proxy)
    assert proxy == 'quiet'


# --------------------------------------------------------------------------- #
# (g) connector configs leave their defaults out, and stay exact
# --------------------------------------------------------------------------- #
# Every built-in connector whose ``from_config`` is ``cls(**config)``, built
# with its defaults and with every defaulted argument changed.
_CONNECTORS = {
    'local': lambda d: [LocalConnector('wire-exact')],
    'file': lambda d: [
        FileConnector(str(d / 'f')), FileConnector(str(d / 'f'), mmap_read=False),
    ],
    'redis': lambda d: [
        RedisConnector('127.0.0.1', 7001),
        RedisConnector('10.0.0.1', 7001, pool_size=4, timeout=5.0),
        RedisConnector(nodes=['127.0.0.1:7001', '127.0.0.1:7002'], replicas=2),
    ],
    'endpoint': lambda d: [EndpointConnector(['0' * 32])],
    'globus': lambda d: [
        GlobusConnector({'.*': ('ep', str(d / 'g'))}),
        GlobusConnector({'.*': ('ep', str(d / 'g'))}, transfer_timeout=5.0),
    ],
    **{
        cls.scheme: lambda d, cls=cls: [
            cls('wire-exact'),
            cls('wire-exact', shard_threshold=1024, pool_size=4, timeout=5.0),
        ]
        for cls in (MargoConnector, UCXConnector, ZMQConnector)
    },
}


@pytest.mark.parametrize('scheme', sorted(_CONNECTORS))
def test_connector_config_round_trips_without_defaults(tmp_path, scheme):
    connectors = _CONNECTORS[scheme](tmp_path)
    try:
        for connector in connectors:
            config = connector.config()
            clone = type(connector).from_config(config)
            try:
                assert list(clone.config().items()) == list(config.items())
            finally:
                clone.close()
            defaults = {
                name: parameter.default
                for name, parameter in inspect.signature(type(connector)).parameters.items()
            }
            assert not [
                name for name, value in config.items()
                if name in defaults and defaults[name] == value
            ], config
    finally:
        for connector in connectors:
            connector.close()
        reset_nodes()
        reset_transfer_service()


def test_object_ids_are_32_lowercase_hex_characters():
    ids = {new_object_id() for _ in range(1000)}
    assert len(ids) == 1000
    assert all(len(i) == 32 and set(i) <= set('0123456789abcdef') for i in ids)


def test_the_ci_gate_holds_proxies_to_these_budgets():
    from benchmarks import bench_proxy_ops as bench

    assert (bench.PROXY_WIRE_BUDGET, bench.PER_PROXY_IN_LIST) == (
        PROXY_WIRE_BUDGET, PER_PROXY_IN_LIST,
    )
