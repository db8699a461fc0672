#include "common/stats.h"

#include <algorithm>
#include <cstdio>


namespace malec {

void StatSet::set(const std::string& name, double value) {
  values_[name] = value;
}

double StatSet::get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool StatSet::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string StatSet::toTable() const {
  std::size_t width = 0;
  for (const auto& [k, v] : values_) width = std::max(width, k.size());
  std::string out;
  out.reserve(values_.size() * (width + 16));
  char buf[256];
  for (const auto& [k, v] : values_) {
    std::snprintf(buf, sizeof buf, "%-*s  %.6g\n", static_cast<int>(width),
                  k.c_str(), v);
    out += buf;
  }
  return out;
}

}  // namespace malec
