"""5G radio network dimensioning from crowdsourced cell-tower data."""

__version__ = "0.1.0"

from .balance import (  # noqa: F401
    BalanceThresholds,
    Classification,
    DimensioningResult,
    classify,
    interference_margin_db,
    iterate_balance,
)
from .capacity import (  # noqa: F401
    TrafficModel,
    capacity_radius,
    cell_capacity_mbps,
    offered_load,
    sites_for_capacity,
)
from .coverage import (  # noqa: F401
    LinkBudget,
    PropagationModel,
    invert_to_radius,
    mapl_db,
    noise_floor_dbm,
    path_loss_db,
    sites_for_coverage,
)
from .density import (  # noqa: F401
    DensityGrid,
    DeploymentArea,
    GridSpec,
    bin_records,
    find_5gda,
    subscriber_density,
)
from .economics import (  # noqa: F401
    CostModel,
    CostReport,
    annual_cost,
    compare_areas,
    cost_per_bit,
)
from .identifiers import parse_plmn  # noqa: F401
from .ingest import (  # noqa: F401
    Cells,
    IngestReport,
    Radio,
    filter_records,
    parse_csv,
    read_cells,
)
from .nr import (  # noqa: F401
    BandwidthPart,
    FrequencyRange,
    NrConfig,
    prb_count,
    scs_khz,
    slot_ms,
    validate_bandwidth,
)
