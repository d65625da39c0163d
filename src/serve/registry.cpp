#include "serve/registry.hpp"

namespace psmgen::serve {

std::uint64_t recordSessionEvent(obs::FlightEvent event,
                                 SessionRecord* record) {
  obs::FlightRecorder& recorder = obs::flightRecorder();
  if (!recorder.enabled()) return 0;
  const std::uint64_t id = recorder.record(event);
  if (record != nullptr) {
    record->last_event_id.store(id, std::memory_order_relaxed);
  }
  return id;
}

std::shared_ptr<SessionRecord> SessionRegistry::open(std::string peer) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto record = std::make_shared<SessionRecord>(id, std::move(peer));
  common::MutexLock lock(mutex_);
  live_.emplace(id, record);
  return record;
}

void SessionRegistry::close(std::uint64_t id) {
  common::MutexLock lock(mutex_);
  live_.erase(id);
}

std::shared_ptr<SessionRecord> SessionRegistry::find(std::uint64_t id) const {
  common::MutexLock lock(mutex_);
  const auto it = live_.find(id);
  return it == live_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<SessionRecord>> SessionRegistry::snapshot() const {
  common::MutexLock lock(mutex_);
  std::vector<std::shared_ptr<SessionRecord>> out;
  out.reserve(live_.size());
  for (const auto& [id, record] : live_) out.push_back(record);
  return out;
}

std::size_t SessionRegistry::size() const {
  common::MutexLock lock(mutex_);
  return live_.size();
}

}  // namespace psmgen::serve
