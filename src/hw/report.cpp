#include "hw/report.h"

#include <iomanip>
#include <sstream>

#include "util/common.h"

namespace ttsnn {

std::string format_energy_table(const std::vector<NamedReport>& rows,
                                double clock_ghz) {
  TTSNN_CHECK(!rows.empty(), "format_energy_table: no rows");
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss << std::setw(10) << std::left << "design" << std::setw(10) << "mode"
      << std::right << std::setw(12) << "total(uJ)" << std::setw(9) << "ratio"
      << std::setw(12) << "compute" << std::setw(10) << "sram" << std::setw(10)
      << "dram" << std::setw(8) << "lif" << std::setw(10) << "leak"
      << std::setw(10) << "ms" << "\n";
  const double base = rows.front().report.total_pj();
  for (const NamedReport& row : rows) {
    const EnergyReport& r = row.report;
    oss << std::setw(10) << std::left << row.design << std::setw(10)
        << row.mode << std::right << std::setprecision(1) << std::setw(12)
        << r.total_pj() / 1e6 << std::setprecision(3) << std::setw(9)
        << r.total_pj() / base << std::setprecision(1) << std::setw(12)
        << r.compute_pj / 1e6 << std::setw(10) << r.sram_pj / 1e6
        << std::setw(10) << r.dram_pj / 1e6 << std::setw(8) << r.lif_pj / 1e6
        << std::setw(10) << r.leakage_pj / 1e6 << std::setprecision(2)
        << std::setw(10) << r.milliseconds(clock_ghz) << "\n";
  }
  return oss.str();
}

}  // namespace ttsnn
