"""Microscopic traffic simulation with MCMC-calibrated driver behaviour.

The package covers the full loop: fit car-following parameters to
trajectory data with a random-walk Metropolis-Hastings sampler, export
the posteriors as histograms, sample per-vehicle parameter sets from
them, and run a gym-style driving environment whose background traffic
uses those draws. ``calibrate`` is the one construction of the
``calibrate`` verb's chains, from trajectories in memory.
"""

__version__ = "0.1.0"

from .calibration import (DEFAULT_NOISE_SIGMA, Chain, GaussianTarget,
                          ProposalConfig, TargetDensity, autocorrelation,
                          calibrate, default_proposal_sigma, mh_step,
                          pooled_histograms, posterior_histogram, run_chain,
                          run_chains, synthetic_trajectory)
from .env import Action, StepResult, TrafficEnv
from .errors import (ConfigurationError, DegenerateSeriesError, EnvUsageError,
                     GenerationError, InputDomainError, MicrotrafficError,
                     NetworkError, PolicyProtocolError, SchemaError,
                     SingularGapError)
from .histogram import Histogram, load_histograms, save_histograms
from .idm import (PARAM_NAMES, FollowingState, ParamSet, Trajectory,
                  desired_gap, idm_acceleration, rmse_objective,
                  rollout_follower, rollout_rmse_objective)
from .network import (Lane, RoadCoord, RoadNetwork, Scenario, global_to_road,
                      is_off_road, list_scenarios, load_network,
                      load_scenario, road_to_global)
from .population import (DemandSpec, Route, VehicleSpec, build_demand,
                         default_histograms, generate_random_trips,
                         load_demand, sample_from_histogram,
                         sample_param_set, save_demand)
