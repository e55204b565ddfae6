#include "decmon/service/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "decmon/monitor/monitor_process.hpp"

namespace decmon::service {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace

MonitoringService::MonitoringService(ServiceConfig config)
    : config_(config) {
  if (config_.num_shards < 1) config_.num_shards = 1;
  shards_.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(shards_.size());
  for (int i = 0; i < config_.num_shards; ++i) {
    threads_.emplace_back([this, i] { worker(i); });
  }
}

MonitoringService::~MonitoringService() {
  drain();
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

SessionId MonitoringService::submit(const SessionSpec& spec) {
  SessionId id;
  {
    std::scoped_lock lock(mutex_);
    id = slots_.size();
    slots_.push_back(Slot{});
    Slot& slot = slots_.back();
    slot.spec = spec;
    slot.outcome.id = id;
    slot.admitted_at = Clock::now();
    const int affinity =
        spec.affinity >= 0 && spec.affinity < num_shards()
            ? spec.affinity
            : static_cast<int>(id % shards_.size());
    shards_[static_cast<std::size_t>(affinity)]->queue.push_back(&slot);
  }
  // All workers may be parked on empty own-queues waiting to steal; wake
  // them all and let pop_locked decide who takes it.
  work_cv_.notify_all();
  return id;
}

void MonitoringService::drain() {
  std::unique_lock lock(mutex_);
  drain_cv_.wait(lock, [&] { return completed_ == slots_.size(); });
}

bool MonitoringService::has_work_locked(int self) const {
  if (!shards_[static_cast<std::size_t>(self)]->queue.empty()) return true;
  if (!config_.steal) return false;
  for (const auto& shard : shards_) {
    if (!shard->queue.empty()) return true;
  }
  return false;
}

MonitoringService::Slot* MonitoringService::pop_locked(int self,
                                                       bool* stolen) {
  Shard& own = *shards_[static_cast<std::size_t>(self)];
  if (!own.queue.empty()) {
    Slot* slot = own.queue.front();
    own.queue.pop_front();
    *stolen = false;
    return slot;
  }
  if (!config_.steal) return nullptr;
  // Steal from the back of the most backlogged peer: the oldest sessions
  // keep their affinity shard's FIFO order, the newest absorb the idle
  // capacity.
  Shard* victim = nullptr;
  for (const auto& shard : shards_) {
    if (shard->queue.empty()) continue;
    if (!victim || shard->queue.size() > victim->queue.size()) {
      victim = shard.get();
    }
  }
  if (!victim) return nullptr;
  Slot* slot = victim->queue.back();
  victim->queue.pop_back();
  *stolen = true;
  return slot;
}

MonitorSession& MonitoringService::session_for(Shard& shard,
                                               const SessionSpec& spec) {
  const int key = static_cast<int>(spec.property) * 64 + spec.num_processes;
  auto it = shard.catalog.find(key);
  if (it == shard.catalog.end()) {
    // Zero-copy warm-up: every shard's catalog holds the same immutable
    // artifact (one fleet-wide synthesis, see paper::shared_property) --
    // admission is a lookup plus a refcount bump, nothing property-sized
    // is copied per shard.
    it = shard.catalog
             .emplace(key, std::make_unique<MonitorSession>(
                               paper::shared_property(
                                   spec.property, spec.num_processes,
                                   paper::make_registry(spec.num_processes))))
             .first;
  }
  return *it->second;
}

void MonitoringService::worker(int shard_index) {
  Shard& self = *shards_[static_cast<std::size_t>(shard_index)];
  for (;;) {
    Slot* slot = nullptr;
    bool stolen = false;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stopping_ || has_work_locked(shard_index); });
      slot = pop_locked(shard_index, &stolen);
      if (!slot) {
        if (stopping_) return;
        continue;  // raced with another worker; go back to waiting
      }
      slot->outcome.shard = shard_index;
      slot->outcome.stolen = stolen;
    }

    const auto started_at = Clock::now();
    SessionOutcome& out = slot->outcome;
    try {
      const SessionSpec& spec = slot->spec;
      TraceParams params = paper::experiment_params(
          spec.property, spec.num_processes, spec.trace_seed, spec.comm_mu,
          spec.comm_enabled, spec.internal_events);
      SystemTrace trace = generate_trace(params);
      force_final_all_true(trace);
      MonitorSession& session = session_for(self, spec);
      out.result = session.run(trace, spec.sim, spec.options);
      out.ok = out.result.verdict.all_finished;
      if (!out.ok) out.error = "monitors did not drain";
    } catch (const MonitorOverflow& e) {
      // The spec asked for a bound and the session hit it: a surfaced,
      // intentional outcome, not a fleet failure.
      out.ok = false;
      out.overflowed = true;
      out.error = e.what();
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
    const auto done_at = Clock::now();
    out.queue_ms = ms_between(slot->admitted_at, started_at);
    out.latency_ms = ms_between(slot->admitted_at, done_at);

    {
      std::scoped_lock lock(mutex_);
      self.completed += 1;
      if (out.overflowed) {
        self.overflowed += 1;
      } else if (!out.ok) {
        self.failed += 1;
      }
      if (stolen) self.stolen += 1;
      self.program_events += out.result.program_events;
      self.monitor_messages += out.result.monitor_messages;
      if (out.result.verdict.violated()) self.violations += 1;
      if (out.result.verdict.satisfied()) self.satisfactions += 1;
      self.latency_ns.record(ns_between(slot->admitted_at, done_at));
      self.queue_ns.record(ns_between(slot->admitted_at, started_at));
      self.busy_ms += ms_between(started_at, done_at);
      if (!config_.keep_outcomes) {
        // Keep the scalars (already aggregated above) but drop the bulky
        // per-monitor stats and verdict sets.
        out.result.verdict.per_monitor.clear();
        out.result.verdict.per_monitor.shrink_to_fit();
      }
      slot->done = true;
      ++completed_;
      if (completed_ == slots_.size()) drain_cv_.notify_all();
    }
  }
}

ServiceStats MonitoringService::stats() const {
  ServiceStats agg;
  std::scoped_lock lock(mutex_);
  agg.admitted = slots_.size();
  agg.completed = completed_;
  agg.per_shard_completed.reserve(shards_.size());
  agg.per_shard_busy_ms.reserve(shards_.size());
  for (const auto& shard : shards_) {
    agg.failed += shard->failed;
    agg.overflowed += shard->overflowed;
    agg.stolen += shard->stolen;
    agg.program_events += shard->program_events;
    agg.monitor_messages += shard->monitor_messages;
    agg.violations += shard->violations;
    agg.satisfactions += shard->satisfactions;
    agg.latency_ns.merge(shard->latency_ns);
    agg.queue_ns.merge(shard->queue_ns);
    agg.per_shard_completed.push_back(shard->completed);
    agg.per_shard_busy_ms.push_back(shard->busy_ms);
  }
  return agg;
}

std::vector<SessionOutcome> MonitoringService::outcomes() const {
  std::vector<SessionOutcome> out;
  std::scoped_lock lock(mutex_);
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.done) out.push_back(slot.outcome);
  }
  std::sort(out.begin(), out.end(),
            [](const SessionOutcome& a, const SessionOutcome& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace decmon::service
