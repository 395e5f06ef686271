"""Decentralized daisy-chain MMSE uplink equalization under colored noise."""

from .model import (Scenario, ChannelSet, build_channel,
                    draw_noise_pool, exact_covariance, sample_covariance,
                    powers_from_ratios)
from .central import (SingularMatrixError, mmse_centralized, zf_centralized,
                      sample_objective)
from .daisy import (Chain, Schedule, BcdResult, make_chain, bdac_init,
                    bcd_block_update, residual, run_bcd)
from .interconnect import Topology, TrafficLedger, predicted_traffic
from .detect import Constellation, modulate
from .harness import (ExperimentConfig, ResultRow, run_experiment, emit_csv,
                      convergence_trace, emit_convergence_trace, load_config)

__all__ = [name for name in dir() if not name.startswith("_")]
