"""Pipelined temporally blocked 3D Jacobi engine with distributed multi-layer
halo exchange and analytical performance models."""

from .grid import (
    Grid3,
    BlockSpec,
    create_grid,
    decompose_blocks,
    read_snapshot,
    write_snapshot,
)
from .kernel import reference_sweep, spatial_blocked_sweep
from .pipeline import (
    PipelineConfig,
    PipelineDeadlock,
    PipelineEngine,
    RunStats,
    ThreadStats,
    effective_distances,
    estimate_max_distance,
    run_pipelined,
)
from .halo import (
    DistConfig,
    RankTopology,
    Subdomain,
    assemble_global,
    build_halo_plan,
    decompose_domain,
    exchange_multilayer_halos,
    run_distributed_inprocess,
    run_rank,
)
from .perfmodel import (
    MachineModel,
    NetworkModel,
    baseline_perf,
    cache_cycle_model,
    comm_efficiency,
    l3_scalability_check,
    load_machine_model,
    load_network_model,
    multihalo_advantage,
    pipelined_bound,
)
from .bench import BenchResult, stream_copy_bench, update_bench

__version__ = "0.1.0"
