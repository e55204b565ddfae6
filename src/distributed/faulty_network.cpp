#include "decmon/distributed/faulty_network.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "decmon/util/rng.hpp"

namespace decmon {

std::string FaultConfig::to_string() const {
  std::ostringstream os;
  os << "delay_prob " << delay_prob << " delay_mu " << delay_mu
     << " delay_sigma " << delay_sigma << " reorder_prob " << reorder_prob
     << " dup_prob " << dup_prob << " drop_prob " << drop_prob
     << " max_drops " << max_drops << " redelivery_delay " << redelivery_delay
     << " lose_prob " << lose_prob << " lose_dropped " << (lose_dropped ? 1 : 0)
     << " seed " << seed;
  return os.str();
}

FaultyNetwork::FaultyNetwork(MonitorNetwork* inner, int num_processes,
                             FaultConfig config)
    : inner_(inner), n_(num_processes), config_(config) {
  if (!inner) throw std::invalid_argument("FaultyNetwork: null inner network");
  channels_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  for (int from = 0; from < n_; ++from) {
    for (int to = 0; to < n_; ++to) {
      channels_[static_cast<std::size_t>(from * n_ + to)].rng_state =
          derive_seed(config_.seed,
                      0xFA17ull + static_cast<std::uint64_t>(from * n_ + to));
    }
  }
}

FaultyNetwork::Channel& FaultyNetwork::channel(int from, int to) {
  if (from < 0 || from >= n_ || to < 0 || to >= n_) {
    throw std::out_of_range("FaultyNetwork: bad channel endpoint");
  }
  return channels_[static_cast<std::size_t>(from * n_ + to)];
}

double FaultyNetwork::uniform(Channel& ch) {
  return static_cast<double>(splitmix64_next(ch.rng_state) >> 11) *
         0x1.0p-53;
}

double FaultyNetwork::spike(Channel& ch) {
  // Box-Muller from the channel's own stream (std::normal_distribution
  // consumes an implementation-defined number of draws, which would make
  // the stream layout compiler-dependent; the repro format must not be).
  const double u1 = uniform(ch);
  const double u2 = uniform(ch);
  const double z =
      std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(6.283185307179586 * u2);
  const double x = config_.delay_mu + config_.delay_sigma * z;
  return x > 0.0 ? x : 0.0;
}

void FaultyNetwork::send_perturbed(MonitorMessage msg,
                                   const DeliveryPerturbation& perturbation) {
  // Compose: already-perturbed messages (e.g. from a stacked decorator)
  // pick up this layer's faults on top.
  if (msg.from == msg.to || !config_.any_faults()) {
    inner_->send_perturbed(std::move(msg), perturbation);
    return;
  }
  DeliveryPerturbation p = perturbation;
  std::unique_ptr<NetPayload> dup_copy;
  DeliveryPerturbation dup_p;
  {
    // Decision draws and stats under the lock (node threads send
    // concurrently under ThreadRuntime); inner sends happen after release.
    std::lock_guard<std::mutex> lock(mu_);
    Channel& ch = channel(msg.from, msg.to);
    ++stats_.messages;

    // The five decision rolls happen unconditionally and in a fixed order;
    // magnitude draws follow only for faults that fired. The stream is a
    // pure function of {seed, config, per-channel message ordinal}.
    const double roll_drop = uniform(ch);
    const double roll_delay = uniform(ch);
    const double roll_reorder = uniform(ch);
    const double roll_dup = uniform(ch);
    const double roll_lose = uniform(ch);

    if (roll_lose < config_.lose_prob) {
      // True loss: the message dies here, with no redelivery. Only a
      // reliable channel stacked above can recover it.
      ++stats_.lost;
      return;
    }
    if (roll_drop < config_.drop_prob) {
      const int drops =
          1 + static_cast<int>(splitmix64_next(ch.rng_state) %
                               static_cast<std::uint64_t>(
                                   config_.max_drops > 0 ? config_.max_drops
                                                         : 1));
      stats_.dropped += static_cast<std::uint64_t>(drops);
      if (config_.lose_dropped) {
        // Fault-model violation (self-test only): swallow the message.
        ++stats_.lost;
        return;
      }
      p.extra_delay += drops * config_.redelivery_delay;
      p.bypass_fifo = true;  // retransmissions do not hold the channel
    }
    if (roll_delay < config_.delay_prob) {
      ++stats_.delay_spikes;
      p.extra_delay += spike(ch);
    }
    if (roll_reorder < config_.reorder_prob) {
      ++stats_.reordered;
      p.bypass_fifo = true;
    }
    if (roll_dup < config_.dup_prob && msg.payload) {
      if ((dup_copy = msg.payload->clone())) {
        ++stats_.duplicated;
        dup_p.extra_delay = p.extra_delay + spike(ch);
        dup_p.bypass_fifo = true;
      }
    }
  }
  if (dup_copy) {
    inner_->send_perturbed(
        MonitorMessage{msg.from, msg.to, std::move(dup_copy)}, dup_p);
  }
  inner_->send_perturbed(std::move(msg), p);
}

void FaultyNetwork::send(MonitorMessage msg) {
  send_perturbed(std::move(msg), DeliveryPerturbation{});
}

}  // namespace decmon
