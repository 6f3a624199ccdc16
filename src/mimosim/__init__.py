"""Multi-user MIMO link-level simulator.

Precoding (reduced-channel zero-forcing, eigen zero-forcing, matched
filter), interference-aware detection (MMSE-IRC, generalized LSE and its
whitened limit, QR-based successive cancellation), post-detection metrics,
and a deterministic seeded sweep runner.
"""

from .detection import (
    Constellation,
    build_covariance,
    constellation_by_name,
    gen_lse,
    lse_limit,
    mmse_irc,
    plain_mmse,
    qam16,
    qpsk,
    qr_mld_detect,
    qr_mld_linear,
    qr_mld_parts,
    reference_ic,
)
from .errors import (
    ChannelGenerationError,
    ConfigError,
    DecompositionError,
    DimensionMismatchError,
    IllConditionedError,
    InfeasibleZeroForcingError,
    InvalidInputError,
    MimoSimError,
    NeedsExternalNoiseError,
    RankDeficiencyError,
    SingularMatrixError,
    UniquenessError,
)
from .experiment import (
    SweepConfig,
    SweepRow,
    parse_config,
    rows_to_csv,
    run_sweep,
    write_csv,
)
from .metrics import (
    LinkReport,
    effective_links,
    sinr_per_layer,
    spectral_efficiency,
    su_mu_report,
)
from .precoding import (
    custom_reduction,
    mrt_precode,
    precode,
    rczf_precode,
    reduce_ezf,
    reduce_full_zf,
)
from .system import (
    ChannelSet,
    Scenario,
    calibrate_noise,
    dump_channels,
    generate_channels,
    load_channels,
)

__version__ = "0.1.0"
