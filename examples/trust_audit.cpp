// Auditing *why* TD-AC helps: compare an algorithm's per-source trust
// estimates against ground truth, per partition group, and inspect
// confidence calibration. Uses the Stocks simulator where broken feeds are
// family-specific.

#include <iostream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/calibration.h"
#include "eval/trust_eval.h"
#include "gen/stocks.h"
#include "td/accu.h"
#include "tdac/tdac.h"

int main() {
  auto stocks = tdac::GenerateStocks(/*seed=*/7);
  if (!stocks.ok()) {
    std::cerr << stocks.status() << "\n";
    return 1;
  }
  std::cout << "Stocks feed: " << stocks->dataset.Summary() << "\n\n";

  tdac::Accu accu;
  tdac::TdacOptions opts;
  opts.base = &accu;
  tdac::Tdac td(opts);

  auto global = accu.Discover(stocks->dataset);
  auto report = td.DiscoverWithReport(stocks->dataset);
  if (!global.ok() || !report.ok()) {
    std::cerr << "discovery failed\n";
    return 1;
  }

  std::cout << "TD-AC partition: " << report->partition.ToString() << "\n"
            << "(true families: " << stocks->families.ToString() << ")\n\n";

  // How well does each algorithm's trust track the real per-source
  // accuracy?
  auto ge = tdac::EvaluateTrust(stocks->dataset, global->source_trust,
                                stocks->truth);
  auto pe = tdac::EvaluateTrust(stocks->dataset,
                                report->result.source_trust, stocks->truth);
  if (ge.ok() && pe.ok()) {
    tdac::TablePrinter table(
        {"Trust estimate", "Pearson", "Spearman", "MAE"});
    table.AddRow({"Accu (global)", tdac::FormatDouble(ge->pearson, 3),
                  tdac::FormatDouble(ge->spearman, 3),
                  tdac::FormatDouble(ge->mean_abs_error, 3)});
    table.AddRow({"TD-AC (per partition)", tdac::FormatDouble(pe->pearson, 3),
                  tdac::FormatDouble(pe->spearman, 3),
                  tdac::FormatDouble(pe->mean_abs_error, 3)});
    table.Print(std::cout);
    std::cout << "\n";
  }

  // Calibration of the confidences each approach reports.
  for (const auto& [label, result] :
       {std::pair<const char*, const tdac::TruthDiscoveryResult*>{
            "Accu", &*global},
        {"TD-AC(F=Accu)", &report->result}}) {
    auto calibration =
        tdac::EvaluateCalibration(stocks->dataset, *result, stocks->truth, 5);
    if (!calibration.ok()) continue;
    std::cout << label << " — ECE = "
              << tdac::FormatDouble(calibration->expected_calibration_error,
                                    3)
              << ", reliability diagram:\n";
    tdac::TablePrinter table({"confidence bin", "mean conf", "accuracy",
                              "items"});
    for (const auto& bin : calibration->bins) {
      if (bin.count == 0) continue;
      std::string range = "[";
      range += tdac::FormatDouble(bin.lower, 1) + ", " +
               tdac::FormatDouble(bin.upper, 1) + ")";
      table.AddRow({range, tdac::FormatDouble(bin.mean_confidence, 3),
                    tdac::FormatDouble(bin.empirical_accuracy, 3),
                    std::to_string(bin.count)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
