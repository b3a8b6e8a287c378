"""Frequency-hopping MIMO dual-function radar-communications simulator."""

from .config import SPEED_OF_LIGHT, ConfigError, RadarConfig
from .iqfile import IqFormatError, IqFrame, read_iq, write_iq
from .waveform import (HopPlan, PayloadLengthError, PskGrid, codebook_bits,
                       make_psk_grid, plan_hops, synthesize)
from .impairments import (FrontEndProfile, ImpairmentSpec, accumulated_sto,
                          apply, sto_from_rho, window_gain)
from .commrx import (DemodReport, ErrorCounts, PilotRatioTable, SyncEstimate,
                     assign_peaks, build_pilot_ratios, correction_factor,
                     demodulate, estimate_cfo, estimate_clock, score_report)
from .radarrx import (ArrayModel, DetectionList, RangeDopplerMap, Target,
                      cfar_detect, check_scene, estimate_angle,
                      estimate_params, matched_filter, mtd, process_cpi,
                      synthesize_echo)
from .bench import (SweepReport, SweepSpec, data_rate, run_ber_sweep,
                    run_method_comparison, run_radar_sweep, wilson_interval)

__version__ = "0.1.0"
