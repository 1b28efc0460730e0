"""``repro.ppml`` — privacy-preserving machine learning: analysis and execution.

The paper's introduction motivates quadratic layers as a drop-in replacement
for ReLU in PPML protocols (CryptoNets, Delphi, Gazelle): every ReLU needs a
garbled-circuit comparison online, while a quadratic layer only needs secure
multiplications.  This package quantifies that trade-off *and executes it*:

* :mod:`repro.ppml.protocols` — per-operation cost models of the protocols,
* :mod:`repro.ppml.cost` — operation counting and cost estimation for models,
* :mod:`repro.ppml.convert` — ReLU→square / first-order→quadratic conversion,
* :mod:`repro.ppml.fixedpoint` — the fixed-point number format protocols
  compute in (encode / decode / nearest + stochastic truncation),
* :mod:`repro.ppml.runtime` — the secure-inference runtime: run any compiled
  model under hybrid-protocol semantics and record what it actually did,
* :mod:`repro.ppml.offline` — the precompute phase behind secure serving:
  trace-sized Beaver-triple / garbled-label pools with background producers
  and per-request consumption accounting,
* :mod:`repro.ppml.trace` — executed protocol traces and their conversion
  into online latency / communication.

Example
-------
>>> from repro import models, ppml
>>> model = models.vgg8(num_classes=10, width_multiplier=0.25)
>>> report = ppml.analyse_model(model, (3, 32, 32), protocol="delphi")
>>> friendly, _ = ppml.to_ppml_friendly(model, strategy="quadratic_no_relu", inplace=False)
>>> savings = ppml.ppml_savings(model, friendly, (3, 32, 32), protocol="delphi",
...                             measured=True)   # executes both models
>>> assert savings.measured_matches and savings.after_trace.garbled_free
"""

from .convert import (
    PPMLConversionReport,
    PPMLSavings,
    RELU_LIKE,
    count_relu_modules,
    ppml_savings,
    remove_activations,
    replace_activations,
    replace_maxpool_with_avgpool,
    replace_relu_with_square,
    to_ppml_friendly,
)
from .cost import (
    CostReport,
    LayerCost,
    LayerOperations,
    analyse_model,
    compare_protocols,
    count_operations,
    estimate_cost,
    format_cost_report,
)
from .fixedpoint import (
    TRUNCATION_MODES,
    FixedPointFormat,
    decode,
    encode,
    fixed_mul,
    truncate,
)
from .offline import (
    OfflineBudget,
    OfflinePhase,
    TriplePool,
    pool_key,
)
from .protocols import (
    CRYPTONETS,
    DELPHI,
    GAZELLE,
    PROTOCOLS,
    OperationCosts,
    Protocol,
    ProtocolCost,
    available_protocols,
    resolve_protocol,
)
from .runtime import (
    SecureCompiledModel,
    SecureConfig,
    SecureExecutionError,
    SecurePredictor,
    SecureStats,
    secure_compile,
)
from .trace import (
    LayerTrace,
    ProtocolTrace,
    SecureCostEstimate,
    format_trace,
)

__all__ = [
    "Protocol",
    "OperationCosts",
    "ProtocolCost",
    "PROTOCOLS",
    "DELPHI",
    "GAZELLE",
    "CRYPTONETS",
    "resolve_protocol",
    "available_protocols",
    "LayerOperations",
    "LayerCost",
    "CostReport",
    "count_operations",
    "estimate_cost",
    "analyse_model",
    "compare_protocols",
    "format_cost_report",
    "RELU_LIKE",
    "count_relu_modules",
    "replace_activations",
    "replace_relu_with_square",
    "replace_maxpool_with_avgpool",
    "remove_activations",
    "to_ppml_friendly",
    "PPMLConversionReport",
    "ppml_savings",
    "PPMLSavings",
    "FixedPointFormat",
    "TRUNCATION_MODES",
    "encode",
    "decode",
    "truncate",
    "fixed_mul",
    "LayerTrace",
    "ProtocolTrace",
    "SecureCostEstimate",
    "format_trace",
    "SecureConfig",
    "SecureCompiledModel",
    "SecurePredictor",
    "SecureStats",
    "SecureExecutionError",
    "secure_compile",
    "OfflineBudget",
    "OfflinePhase",
    "TriplePool",
    "pool_key",
]
