"""The five study inputs (Table 4) as parameterized synthetic stand-ins.

Each entry maps one of the paper's inputs to a generator configuration that
reproduces its *shape* (degree distribution and diameter class — the
properties Section 5.13 shows the results depend on).  Three scales are
provided:

* ``tiny``   — unit-test scale (hundreds of vertices),
* ``default``— study scale for this reproduction (thousands of vertices;
  every experiment in ``benchmarks/`` runs at this scale),
* ``full``   — the paper's actual sizes (only practical if you have time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from . import generators
from .csr import CSRGraph

__all__ = ["DatasetSpec", "DATASETS", "dataset_names", "load_dataset", "load_all"]


@dataclass(frozen=True)
class DatasetSpec:
    """One paper input and its generator at each scale."""

    name: str
    paper_name: str
    graph_type: str
    origin: str
    builders: Dict[str, Callable[[], CSRGraph]]

    def build(self, scale: str = "default") -> CSRGraph:
        if scale not in self.builders:
            raise KeyError(
                f"unknown scale {scale!r} for {self.name}; "
                f"available: {sorted(self.builders)}"
            )
        return self.builders[scale]()


def _named(fn: Callable[..., CSRGraph], name: str, **kwargs) -> Callable[[], CSRGraph]:
    def build() -> CSRGraph:
        return fn(name=name, **kwargs)

    return build


DATASETS: Dict[str, DatasetSpec] = {
    "2d-2e20.sym": DatasetSpec(
        name="2d-2e20.sym",
        paper_name="2d-2e20.sym",
        graph_type="grid",
        origin="Galois",
        builders={
            "tiny": _named(generators.grid2d, "2d-2e20.sym", rows=12, cols=12),
            "default": _named(generators.grid2d, "2d-2e20.sym", rows=80, cols=80),
            "full": _named(generators.grid2d, "2d-2e20.sym", rows=1024, cols=1024),
        },
    ),
    "coPapersDBLP": DatasetSpec(
        name="coPapersDBLP",
        paper_name="coPapersDBLP",
        graph_type="publication",
        origin="SMC",
        builders={
            "tiny": _named(
                generators.clustered, "coPapersDBLP",
                n_communities=40, community_size_mean=16.0,
                membership_per_vertex=1.8, seed=7,
            ),
            "default": _named(
                generators.clustered, "coPapersDBLP",
                n_communities=1600, community_size_mean=7.0,
                membership_per_vertex=2.2, heavy_tail=2.0,
                max_community=500, seed=7,
            ),
            "full": _named(
                generators.clustered, "coPapersDBLP",
                n_communities=120000, community_size_mean=10.0,
                membership_per_vertex=2.2, heavy_tail=2.0,
                max_community=3300, seed=7,
            ),
        },
    ),
    "rmat22.sym": DatasetSpec(
        name="rmat22.sym",
        paper_name="rmat22.sym",
        graph_type="RMAT",
        origin="Galois",
        builders={
            "tiny": _named(generators.rmat, "rmat22.sym", scale=8, edge_factor=8, seed=22),
            "default": _named(generators.rmat, "rmat22.sym", scale=13, edge_factor=8, seed=22),
            "full": _named(generators.rmat, "rmat22.sym", scale=22, edge_factor=8, seed=22),
        },
    ),
    "soc-LiveJournal1": DatasetSpec(
        name="soc-LiveJournal1",
        paper_name="soc-LiveJournal1",
        graph_type="community",
        origin="SNAP",
        builders={
            "tiny": _named(generators.power_law, "soc-LiveJournal1", n_vertices=300, attach=9, seed=1),
            "default": _named(generators.power_law, "soc-LiveJournal1", n_vertices=16000, attach=9, seed=1),
            "full": _named(generators.power_law, "soc-LiveJournal1", n_vertices=4847571, attach=9, seed=1),
        },
    ),
    "USA-road-d.NY": DatasetSpec(
        name="USA-road-d.NY",
        paper_name="USA-road-d.NY",
        graph_type="road map",
        origin="Dimacs",
        builders={
            "tiny": _named(generators.road_network, "USA-road-d.NY", n_vertices=200, seed=3),
            "default": _named(generators.road_network, "USA-road-d.NY", n_vertices=10000, seed=3),
            "full": _named(generators.road_network, "USA-road-d.NY", n_vertices=264346, seed=3),
        },
    ),
}


#: Additional inputs beyond the paper's five (Indigo2 "contains more and
#: larger graphs").  Not part of the Table 4/5 reproduction; available to
#: users for broader sweeps via :func:`load_extra`.
EXTRA_DATASETS: Dict[str, DatasetSpec] = {
    "kron-skewed": DatasetSpec(
        name="kron-skewed",
        paper_name="(extra) Kronecker, heavier tail",
        graph_type="RMAT",
        origin="synthetic",
        builders={
            "tiny": _named(
                generators.rmat, "kron-skewed",
                scale=8, edge_factor=8, a=0.65, b=0.15, c=0.15, seed=30,
            ),
            "default": _named(
                generators.rmat, "kron-skewed",
                scale=13, edge_factor=8, a=0.65, b=0.15, c=0.15, seed=30,
            ),
        },
    ),
    "wiki-Talk": DatasetSpec(
        name="wiki-Talk",
        paper_name="(extra) communication graph",
        graph_type="communication",
        origin="synthetic",
        builders={
            "tiny": _named(
                generators.hub_and_spokes, "wiki-Talk",
                n_vertices=400, n_hubs=3, spoke_degree=2.5, seed=12,
            ),
            "default": _named(
                generators.hub_and_spokes, "wiki-Talk",
                n_vertices=12000, n_hubs=6, spoke_degree=2.5, seed=12,
            ),
        },
    ),
    "com-Orkut": DatasetSpec(
        name="com-Orkut",
        paper_name="(extra) dense social network",
        graph_type="community",
        origin="synthetic",
        builders={
            "tiny": _named(
                generators.power_law, "com-Orkut",
                n_vertices=300, attach=20, seed=44,
            ),
            "default": _named(
                generators.power_law, "com-Orkut",
                n_vertices=8000, attach=30, seed=44,
            ),
        },
    ),
}


def dataset_names() -> List[str]:
    """The five input names in the paper's Table 4 order."""
    return list(DATASETS)


def extra_dataset_names() -> List[str]:
    """Names of the additional (non-Table-4) inputs."""
    return list(EXTRA_DATASETS)


def load_extra(name: str, scale: str = "default") -> CSRGraph:
    """Build one of the additional inputs."""
    if name not in EXTRA_DATASETS:
        raise KeyError(
            f"unknown extra dataset {name!r}; available: {extra_dataset_names()}"
        )
    return EXTRA_DATASETS[name].build(scale)


def load_dataset(name: str, scale: str = "default") -> CSRGraph:
    """Build (deterministically) the stand-in for one paper input."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {dataset_names()}")
    return DATASETS[name].build(scale)


def load_all(
    scale: str = "default", names: Optional[Iterable[str]] = None
) -> Dict[str, CSRGraph]:
    """Build the named inputs (default: all five) at the given scale, in
    the order given; an unknown name raises :func:`load_dataset`'s
    ``KeyError``."""
    return {
        name: load_dataset(name, scale)
        for name in (DATASETS if names is None else names)
    }
