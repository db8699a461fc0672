#include "energy/energy_account.h"

#include "ckpt/state_io.h"
#include "common/binio.h"

namespace malec::energy {

EnergyAccount::EventId EnergyAccount::defineEvent(const std::string& name,
                                                  double pj_per_event) {
  MALEC_CHECK_MSG(pj_per_event >= 0.0, "event energy must be non-negative");
  const EventId id = resolveEvent(name);
  events_[id].pj = pj_per_event;
  return id;
}

EnergyAccount::EventId EnergyAccount::resolveEvent(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const EventId id = static_cast<EventId>(events_.size());
  events_.push_back(Event{});
  index_.emplace(name, id);
  return id;
}

void EnergyAccount::defineLeakage(const std::string& structure, double mw) {
  MALEC_CHECK_MSG(mw >= 0.0, "leakage must be non-negative");
  leakage_mw_[structure] = mw;
}

std::uint64_t EnergyAccount::eventCount(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0 : events_[it->second].count;
}

double EnergyAccount::eventEnergyPj(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0.0 : events_[it->second].pj;
}

bool EnergyAccount::hasEvent(const std::string& name) const {
  return index_.count(name) != 0;
}

double EnergyAccount::dynamicPj() const {
  // Sum in name order (not id order) so the value is bit-identical no matter
  // in which order components resolved their ids.
  double sum = 0.0;
  for (const auto& [name, id] : index_) {
    const Event& ev = events_[id];
    sum += ev.pj * static_cast<double>(ev.count);
  }
  return sum;
}

double EnergyAccount::leakageMw() const {
  double sum = 0.0;
  for (const auto& [name, mw] : leakage_mw_) sum += mw;
  return sum;
}

double EnergyAccount::leakagePj(Cycle cycles, double clock_ghz) const {
  MALEC_CHECK(clock_ghz > 0.0);
  // mW * ns = pJ; one cycle at f GHz lasts 1/f ns.
  const double ns = static_cast<double>(cycles) / clock_ghz;
  return leakageMw() * ns;
}

double EnergyAccount::totalPj(Cycle cycles, double clock_ghz) const {
  return dynamicPj() + leakagePj(cycles, clock_ghz);
}

double EnergyAccount::dynamicPjFor(const std::string& prefix) const {
  double sum = 0.0;
  for (const auto& [name, id] : index_)
    if (name.rfind(prefix, 0) == 0) {
      const Event& ev = events_[id];
      sum += ev.pj * static_cast<double>(ev.count);
    }
  return sum;
}

double EnergyAccount::leakageMwFor(const std::string& prefix) const {
  double sum = 0.0;
  for (const auto& [name, mw] : leakage_mw_)
    if (name.rfind(prefix, 0) == 0) sum += mw;
  return sum;
}

StatSet EnergyAccount::report(Cycle cycles, double clock_ghz) const {
  StatSet s;
  for (const auto& [name, id] : index_) {
    const Event& ev = events_[id];
    s.set("count." + name, static_cast<double>(ev.count));
    s.set("dyn_pj." + name, ev.pj * static_cast<double>(ev.count));
  }
  for (const auto& [name, mw] : leakage_mw_) s.set("leak_mw." + name, mw);
  s.set("total.dynamic_pj", dynamicPj());
  s.set("total.leakage_pj", leakagePj(cycles, clock_ghz));
  s.set("total.energy_pj", totalPj(cycles, clock_ghz));
  s.set("total.leakage_mw", leakageMw());
  return s;
}

void EnergyAccount::clearCounts() {
  for (Event& ev : events_) ev.count = 0;
}

namespace {

/// FNV-1a over the (sorted) name -> id mapping: a cheap fingerprint of the
/// event space a checkpoint's counters index into.
std::uint64_t eventSpaceHash(const std::map<std::string, EnergyAccount::EventId>& index) {
  std::uint64_t h = binio::kFnvOffset;
  for (const auto& [name, id] : index) {
    h = binio::fnv1a(h, reinterpret_cast<const std::uint8_t*>(name.data()),
                     name.size());
    std::uint8_t idb[4];
    binio::put32(idb, id);
    h = binio::fnv1a(h, idb, sizeof idb);
  }
  return h;
}

}  // namespace

void EnergyAccount::saveState(ckpt::StateWriter& w) const {
  w.u64(eventSpaceHash(index_));
  w.u64(events_.size());
  for (const Event& ev : events_) w.u64(ev.count);
}

void EnergyAccount::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == eventSpaceHash(index_),
                  "checkpoint was taken under a different energy-event "
                  "inventory — config mismatch");
  MALEC_CHECK_MSG(r.u64() == events_.size(),
                  "checkpoint event-counter count disagrees with this "
                  "account");
  for (Event& ev : events_) ev.count = r.u64();
}

}  // namespace malec::energy
