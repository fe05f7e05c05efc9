"""Shared fixtures for the test suite.

Also makes ``src/`` importable when the package has not been pip-installed
(e.g. a fresh clone running ``pytest`` directly).
"""

import os
import sys
from pathlib import Path

# The persistent result cache must not leak state between test runs of
# different code versions: tests exercise the engines directly unless a
# test injects an explicit ResultCache. (The schedule disk cache stays
# on — it only memoizes the deterministic mapping search.)
os.environ.setdefault("REPRO_RESULT_CACHE", "off")

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

import pytest

from repro.arch.presets import eyeriss_v1


@pytest.fixture
def mesh_accelerator():
    """The paper's mesh baseline: Eyeriss-style 14x12."""
    return eyeriss_v1(torus=False)


@pytest.fixture
def torus_accelerator():
    """The RoTA variant of the Eyeriss-style accelerator."""
    return eyeriss_v1(torus=True)


@pytest.fixture
def small_torus():
    """A tiny torus array for exhaustive-enumeration tests."""
    from repro.arch.array import PEArray
    from repro.arch.topology import Topology
    from repro.arch.accelerator import Accelerator

    return Accelerator(
        name="tiny-5x4-torus",
        array=PEArray(width=5, height=4, topology=Topology.TORUS),
    )


@pytest.fixture
def small_mesh():
    """A tiny mesh array for boundary-violation tests."""
    from repro.arch.array import PEArray
    from repro.arch.topology import Topology
    from repro.arch.accelerator import Accelerator

    return Accelerator(
        name="tiny-5x4-mesh",
        array=PEArray(width=5, height=4, topology=Topology.MESH),
    )


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    """A 2-process ``fork`` gateway on a random port, shared per module."""
    from repro.gateway import GatewayConfig, GatewayService

    service = GatewayService(
        GatewayConfig(
            port=0,
            workers=2,
            queue_depth=32,
            start_method="fork",
            cache_dir=str(tmp_path_factory.mktemp("gateway-cache")),
        )
    )
    service.start()
    yield service
    service.shutdown()


@pytest.fixture(scope="module")
def gateway_manager(tmp_path_factory):
    """A started 2-process ``fork`` job manager (no HTTP), shared per module."""
    from repro.gateway import GatewayManager

    manager = GatewayManager(
        workers=2,
        queue_depth=8,
        cache_dir=str(tmp_path_factory.mktemp("manager-cache")),
        start_method="fork",
    )
    manager.start()
    yield manager
    manager.shutdown()


def make_stream(name="layer", x=3, y=2, z=7, **kwargs):
    """Convenience TileStream builder for engine/policy tests."""
    from repro.dataflow.tiling import TileStream

    return TileStream(
        layer_name=name, space_width=x, space_height=y, num_tiles=z, **kwargs
    )


@pytest.fixture
def stream_factory():
    """Expose :func:`make_stream` as a fixture."""
    return make_stream
