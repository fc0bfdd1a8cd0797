#include "fuzz/coverage.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace rw::fuzz {

std::string CoverageCell::key() const {
  std::string k = family_name(family);
  k += '|';
  k += kind == kFaultFree ? "none"
                          : fault::fault_kind_name(
                                static_cast<fault::FaultKind>(kind));
  k += '|';
  k += sim::queue_policy_name(policy);
  k += '|';
  k += parallel ? "par" : "seq";
  return k;
}

std::vector<CoverageCell> CoverageMatrix::reachable() {
  std::vector<CoverageCell> out;
  for (std::size_t fi = 0; fi < kNumFamilies; ++fi) {
    const auto f = static_cast<Family>(fi);
    if (f == Family::kErt) {
      // Virtual-time engine: no kernel, no fabric — one cell.
      out.push_back({f, CoverageCell::kFaultFree,
                     sim::QueuePolicy::kCalendar, false});
      continue;
    }
    const bool faultable = family_faultable(f);
    const int max_kind =
        faultable ? static_cast<int>(fault::kNumFaultKinds) : 0;
    for (int kind = CoverageCell::kFaultFree; kind < max_kind; ++kind) {
      for (const auto p :
           {sim::QueuePolicy::kCalendar, sim::QueuePolicy::kBinaryHeap}) {
        for (const bool par : {false, true}) out.push_back({f, kind, p, par});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t CoverageMatrix::reachable_count() {
  static const std::size_t n = reachable().size();
  return n;
}

std::size_t CoverageMatrix::hit_count() const {
  static const std::vector<CoverageCell> all = reachable();
  std::size_t n = 0;
  for (const CoverageCell& c : hit_)
    if (std::binary_search(all.begin(), all.end(), c)) ++n;
  return n;
}

double CoverageMatrix::fraction() const {
  const std::size_t total = reachable_count();
  return total == 0 ? 1.0
                    : static_cast<double>(hit_count()) /
                          static_cast<double>(total);
}

std::vector<CoverageCell> CoverageMatrix::unhit_reachable() const {
  std::vector<CoverageCell> out;
  for (const CoverageCell& c : reachable())
    if (hit_.count(c) == 0) out.push_back(c);
  return out;
}

Table CoverageMatrix::to_table() const {
  std::vector<std::string> header{"family", "none"};
  for (std::size_t k = 0; k < fault::kNumFaultKinds; ++k)
    header.emplace_back(
        fault::fault_kind_name(static_cast<fault::FaultKind>(k)));
  Table t(header);
  const std::vector<CoverageCell> all = reachable();
  for (std::size_t fi = 0; fi < kNumFamilies; ++fi) {
    const auto f = static_cast<Family>(fi);
    std::vector<std::string> row{family_name(f)};
    for (int kind = CoverageCell::kFaultFree;
         kind < static_cast<int>(fault::kNumFaultKinds); ++kind) {
      std::size_t reach = 0;
      std::size_t got = 0;
      for (const CoverageCell& c : all) {
        if (c.family != f || c.kind != kind) continue;
        ++reach;
        if (hit_.count(c) != 0) ++got;
      }
      row.push_back(reach == 0 ? "-" : strformat("%zu/%zu", got, reach));
    }
    t.add_row(row);
  }
  return t;
}

}  // namespace rw::fuzz
