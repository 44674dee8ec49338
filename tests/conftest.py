import random
import string
import time

import pytest

from agentway import bench, wire
from agentway.agency import Agency, CodeImage, collector_behavior, pingpong_behavior
from agentway.transport import Endpoint, InProcNetwork, ModeledTransport, TransportOpts
from agentway.wire import FieldDescriptor, StateRecord, TypeTag

VALUE_TAGS = list(TypeTag)


def wait_until(predicate, timeout_s=5.0):
    """Poll ``predicate`` until it holds (True) or ``timeout_s`` passes (False)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def random_value(rng: random.Random, tag: TypeTag):
    if tag == TypeTag.BOOL:
        return rng.random() < 0.5
    if tag == TypeTag.INT32:
        return rng.randint(-(2**31), 2**31 - 1)
    if tag == TypeTag.INT64:
        return rng.randint(-(2**63), 2**63 - 1)
    if tag == TypeTag.FLOAT64:
        return rng.uniform(-1e12, 1e12)
    if tag == TypeTag.STRING:
        return random_text(rng, rng.randint(0, 40))
    if tag == TypeTag.STRING_ARRAY:
        return [random_text(rng, rng.randint(0, 12)) for _ in range(rng.randint(0, 6))]
    if tag == TypeTag.BYTES:
        return rng.randbytes(rng.randint(0, 64))
    if tag == TypeTag.INT32_ARRAY:
        return [rng.randint(-(2**31), 2**31 - 1) for _ in range(rng.randint(0, 8))]
    raise AssertionError(tag)


def random_text(rng: random.Random, n: int) -> str:
    alphabet = string.ascii_letters + string.digits + "äöüλ世"
    return "".join(rng.choice(alphabet) for _ in range(n))


def random_record(rng: random.Random) -> StateRecord:
    n_fields = rng.randint(0, 8)
    fields, values = [], {}
    names = set()
    for _ in range(n_fields):
        name = random_text(rng, rng.randint(1, 12))
        if not name or len(name.encode("utf-8")) > 255 or name in names:
            continue
        names.add(name)
        tag = rng.choice(VALUE_TAGS)
        transient = rng.random() < 0.3
        default = random_value(rng, tag) if transient else None
        fields.append(FieldDescriptor(name, tag, transient=transient, default=default))
        values[name] = random_value(rng, tag)
    return StateRecord(
        kind_name=random_text(rng, rng.randint(1, 20)),
        namespace=random_text(rng, rng.randint(0, 20)),
        fields=fields,
        values=values,
    )


class Cluster:
    """In-process group of agencies sharing one modeled network."""

    def __init__(self, n: int, opts: TransportOpts | None = None, topology=None,
                 subnet: str = "10.0.0", port: int = 9000):
        self.network = InProcNetwork()
        self.opts = opts or TransportOpts()
        self.endpoints = [Endpoint(f"{subnet}.{i + 1}", port) for i in range(n)]
        self.agencies: dict[tuple, Agency] = {}
        for i, ep in enumerate(self.endpoints):
            transport = ModeledTransport(self.network, ep)
            agency = Agency(f"h{i}", ep, transport, self.opts, topology=topology)
            agency.start()
            self.agencies[ep.key] = agency

    def agency(self, i: int) -> Agency:
        return self.agencies[self.endpoints[i].key]

    def install_everywhere(self, image: CodeImage, schema, behavior="collector"):
        factory = collector_behavior if behavior == "collector" else pingpong_behavior
        for agency in self.agencies.values():
            agency.install_code(image)
            agency.register_behavior(image.kind_name, factory(list(schema)))

    def stop(self):
        for agency in self.agencies.values():
            agency.stop()


@pytest.fixture
def codec_builds(monkeypatch):
    """Each schema whose codec ``wire`` builds from now on, in order."""
    built = []

    def counted(schema, _codec=wire._Codec):
        built.append(schema)
        return _codec(schema)

    monkeypatch.setattr(wire, "_Codec", counted)
    return built


@pytest.fixture
def demo_record():
    return bench.optimised_record()


@pytest.fixture
def demo_image(demo_record):
    return CodeImage.from_code(demo_record.kind_name, b"\xca\xfe" * 128)
