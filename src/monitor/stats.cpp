#include "decmon/monitor/stats.hpp"

#include <algorithm>
#include <sstream>

namespace decmon {

MonitorStats& MonitorStats::operator+=(const MonitorStats& other) {
  tokens_created += other.tokens_created;
  tokens_returned += other.tokens_returned;
  token_messages_sent += other.token_messages_sent;
  token_hops += other.token_hops;
  third_process_hops += other.third_process_hops;
  termination_messages += other.termination_messages;
  probes_evaluated += other.probes_evaluated;
  probes_deduped += other.probes_deduped;
  entries_opened += other.entries_opened;
  frames_sent += other.frames_sent;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  global_views_created += other.global_views_created;
  global_views_merged += other.global_views_merged;
  peak_global_views += other.peak_global_views;
  peak_waiting_tokens = std::max(peak_waiting_tokens,
                                 other.peak_waiting_tokens);
  tokens_parked += other.tokens_parked;
  views_overflowed += other.views_overflowed;
  gc_sweeps += other.gc_sweeps;
  history_trimmed += other.history_trimmed;
  peak_history = std::max(peak_history, other.peak_history);
  floor_messages += other.floor_messages;
  resync_floors += other.resync_floors;
  events_processed += other.events_processed;
  events_delayed += other.events_delayed;
  pending_sum += other.pending_sum;
  pending_samples += other.pending_samples;
  max_pending = std::max(max_pending, other.max_pending);
  finish_time = std::max(finish_time, other.finish_time);
  return *this;
}

std::string MonitorStats::to_string() const {
  std::ostringstream os;
  os << "stats{msgs=" << token_messages_sent << " tokens=" << tokens_created
     << " hops=" << token_hops << " third_hops=" << third_process_hops
     << " parked=" << tokens_parked << " evaluated=" << probes_evaluated
     << " deduped=" << probes_deduped
     << " entries=" << entries_opened << " frames=" << frames_sent
     << " wire_bytes=" << bytes_sent << " views=" << global_views_created
     << " delayed=" << events_delayed << " avg_queue="
     << average_delayed_events();
  if (gc_sweeps || history_trimmed) {
    os << " gc=" << gc_sweeps << " trimmed=" << history_trimmed
       << " peak_hist=" << peak_history;
  }
  if (views_overflowed) os << " overflowed=" << views_overflowed;
  os << "}";
  return os.str();
}

}  // namespace decmon
