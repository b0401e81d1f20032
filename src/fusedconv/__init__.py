"""fusedconv: cycle-level simulator, analytical cost model, and design-space
explorer for a line-buffer, depth-concatenated, layer-fused CNN accelerator."""

__version__ = "0.1.0"

from .config import (ConvSpec, Dims, FixedPointFormat, FusionPlan, GeometryError,
                     InternalError, NetworkSpec, ParseError, PoolSpec, Q16_16,
                     ValidationError, full_depth_parallel, output_dims,
                     parse_network, parse_plan, plan_to_text, serialize_network)
from .costmodel import (CostReport, ResourceBudget, analyze, conv3d_latency,
                        steady_cycles, time_ms)
from .dataflow import SimResult, simulate_group, simulate_plan
from .datagen import SeededGenerator, generate_tensor, generate_weights
from .fixedpoint import fx_add_sat, fx_mul
from .dse import assign_depth_parallelism, nested_chain
from .golden import FilterBank, Tensor3D, conv_layer, maxpool_layer, run_network
