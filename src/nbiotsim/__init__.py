"""Analytical simulator of NB-IoT small-data transmission procedures.

Computes UE energy consumption, battery lifetime, per-channel radio-resource
usage, and cell capacity gain of the control-plane (CP) and user-plane (UP)
small-data optimizations relative to the legacy Service Request (SR), across
coverage levels and traffic cases.
"""

from .config import (ConfigurationError, CoverageProfile, PowerProfile, Procedure,
                     Reachability, Scenario, TrafficCase, UeState,
                     builtin_coverage_profile, format_scenario, parse_scenario,
                     parse_scenario_file, scenario_value, validate_scenario)
from .phy import (ChannelKind, message_airtime, nprach_tx_power_dbm,
                  npusch_tx_power_dbm, schedule_gap_ms, tx_power_consumption_mw)
from .ra import detection_probability, expected_attempts
from .flows import (EnergyCategory, Interval, Plane, ProcedureFlow,
                    SignalingMessage, build_flow, build_tau_flow, flow_timeline)
from .energy import (CycleProfile, EnergyBreakdown, battery_lifetime_years,
                     cycle_energy, cycle_profile, psm_baseline_lifetime_years)
from .capacity import CapacityReport, capacity_gain_pct, cell_capacity, default_budgets

__version__ = "0.1.0"
