// Sweep report rendering: one row per grid point, as CSV (spreadsheet /
// pandas) or JSON keyed by row label (same shape as BENCH_hotpaths.json's
// "benchmarks" map, so tools built around tools/bench_to_json.py output can
// consume sweep results unchanged).
//
// All numbers are printed through one fixed-precision formatter, so two
// sweeps that produced bit-identical doubles render byte-identical reports
// — the property the determinism tests assert on.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace seo {

/// The canonical report number formatter: the shortest decimal that parses
/// back to exactly `v`, so reports are readable, byte-stable, and lossless
/// for downstream trend tracking.  Shared by the sweep and fleet reports.
std::string report_fmt(double v);

/// Escapes `"` and `\` for embedding in a JSON string literal (row labels
/// are plain scenario/key text, so nothing else needs escaping).  Shared
/// by every report emitter so the escaping rules cannot diverge.
std::string report_json_escape(const std::string& s);

/// Column order of the scalar metrics every report row carries.
std::vector<std::string> sweep_metric_names();

/// The metric values for one row, in sweep_metric_names() order.
std::vector<double> sweep_metrics(const SweepRow& row);

/// CSV: header (scenario, axis keys..., metrics...) then one line per grid
/// point.  Axis columns come from `config.axes` order.
std::string sweep_csv(const SweepConfig& config,
                      const std::vector<SweepRow>& rows);

/// JSON: {"sweep": {context...}, "rows": {"<label>": {metrics...}}}.
std::string sweep_json(const SweepConfig& config,
                       const std::vector<SweepRow>& rows);

/// Renders to `out` in the named format ("csv" or "json"; throws
/// ContractViolation otherwise).
void write_sweep_report(std::ostream& out, const std::string& format,
                        const SweepConfig& config,
                        const std::vector<SweepRow>& rows);

}  // namespace seo
