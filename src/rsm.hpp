// Umbrella header: the library's public API in one include.
//
//   #include "rsm.hpp"
//
// Pulls in the modeling core (solvers, cross-validation, models, yield,
// sensitivity), the basis and statistics layers, and the circuit-simulation
// substrate with its workloads. Individual headers remain includable for
// finer-grained dependencies.
#pragma once

// Core: sparse response-surface modeling.
#include "core/column_source.hpp"
#include "core/cross_validation.hpp"
#include "core/lar.hpp"
#include "core/least_squares.hpp"
#include "core/metrics.hpp"
#include "core/model.hpp"
#include "core/omp.hpp"
#include "core/pipeline.hpp"
#include "core/sobol.hpp"
#include "core/solver_path.hpp"
#include "core/somp.hpp"
#include "core/star.hpp"
#include "core/synthetic.hpp"
#include "core/worst_case.hpp"
#include "core/yield.hpp"

// Hermite basis dictionaries.
#include "basis/dictionary.hpp"
#include "basis/hermite.hpp"
#include "basis/multi_index.hpp"

// Statistics: RNG, sampling, descriptive statistics.
#include "stats/descriptive.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

// Circuit simulation substrate and workloads.
#include "circuits/opamp.hpp"
#include "circuits/process.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/mosfet.hpp"
#include "spice/netlist.hpp"
#include "spice/parser.hpp"
#include "spice/transient.hpp"
#include "sram/sram.hpp"

// Linear algebra (exposed for power users extending the solvers).
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/incremental_qr.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/vector_ops.hpp"

// Utilities.
#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
