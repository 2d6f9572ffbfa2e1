#pragma once

/// \file report.h
/// Presentation helper for EnergyReport results: an aligned text table of
/// named reports.

#include <string>
#include <vector>

#include "hw/energy_model.h"

namespace ttsnn {

struct NamedReport {
  std::string design;  ///< "existing" | "proposed" | ...
  std::string mode;    ///< "baseline" | "STT" | "PTT" | "HTT"
  EnergyReport report;
};

/// Multi-line aligned table of the reports (header + one row each), with
/// energies in uJ and the ratio against the first row.
std::string format_energy_table(const std::vector<NamedReport>& rows,
                                double clock_ghz);

}  // namespace ttsnn
