"""The benchmark's tracer wraps package functions through their module attributes.

Renaming or removing one of them breaks the traced benchmark run, so the tracer
is built here too.
"""

import importlib.util
from pathlib import Path

from conftest import Cluster

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_attribute_it_wraps():
    load_tracing().Tracer()  # a missing attribute raises KeyError


def test_a_repeated_itinerary_is_not_parsed_again(demo_record, demo_image):
    tracer = load_tracing().Tracer()
    cluster = Cluster(2)
    cluster.install_everywhere(demo_image, demo_record.fields, behavior="pingpong")
    origin, itinerary = cluster.agency(0), [cluster.endpoints[1], cluster.endpoints[0]]
    try:
        origin.launch(demo_record.copy(), itinerary)  # warm-up
        cluster.network.run()
        tracer.start()
        try:
            for _ in range(3):
                origin.launch(demo_record.copy(), itinerary)
                cluster.network.run()
        finally:
            tracer.stop()
    finally:
        cluster.stop()
    names = [span[0] for span in tracer.spans]
    assert names.count("agency.itinerary_endpoints") == 6  # one per hop, two hops a round trip
    assert "transport.parse_endpoint" not in names
