#include "obs/stream.hpp"

#include <chrono>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace rfid::obs {

namespace {

/// Round-trippable double formatting, matching the trace JSONL convention.
std::string num(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

}  // namespace

void write_json(std::ostream& os, const Metrics& m) {
  os << R"({"polls":)" << m.polls << R"(,"missing":)" << m.missing
     << R"(,"corrupted":)" << m.corrupted << R"(,"retries":)" << m.retries
     << R"(,"undelivered":)" << m.undelivered << R"(,"rounds":)" << m.rounds
     << R"(,"circles":)" << m.circles << R"(,"slots_total":)" << m.slots_total
     << R"(,"slots_useful":)" << m.slots_useful << R"(,"slots_wasted":)"
     << m.slots_wasted << R"(,"vector_bits":)" << m.vector_bits
     << R"(,"command_bits":)" << m.command_bits << R"(,"tag_bits":)"
     << m.tag_bits << R"(,"segments_sent":)" << m.segments_sent
     << R"(,"segments_corrupted":)" << m.segments_corrupted
     << R"(,"segments_retransmitted":)" << m.segments_retransmitted
     << R"(,"downlink_corrupted":)" << m.downlink_corrupted
     << R"(,"degradations":)" << m.degradations
     << R"(,"reader_crashes":)" << m.reader_crashes
     << R"(,"reader_stalls":)" << m.reader_stalls
     << R"(,"reader_restarts":)" << m.reader_restarts
     << R"(,"handoffs":)" << m.handoffs
     << R"(,"framing_overhead_bits":)" << m.framing_overhead_bits
     << R"(,"time_us":)" << num(m.time_us) << R"(,"phases":{)";
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    os << (p == 0 ? "" : ",") << '"' << to_string(static_cast<Phase>(p))
       << R"(":)" << num(m.phases.us[p]);
  }
  os << "}}";
}

std::string_view to_string(StreamEvent::Kind kind) noexcept {
  switch (kind) {
    case StreamEvent::Kind::kDegrade:
      return "degrade";
    case StreamEvent::Kind::kUndelivered:
      return "undelivered";
    case StreamEvent::Kind::kEpoch:
      return "epoch";
    case StreamEvent::Kind::kReaderDown:
      return "reader_down";
    case StreamEvent::Kind::kReaderRecovered:
      return "reader_recovered";
  }
  return "unknown";
}

void write_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << R"({"type":"snapshot","sequence":)" << snapshot.sequence
     << R"(,"interval_s":)" << num(snapshot.interval_s)
     << R"(,"rounds_per_sec":)" << num(snapshot.rounds_per_sec)
     << R"(,"totals":)";
  write_json(os, snapshot.totals);
  os << R"(,"readers":[)";
  for (std::size_t r = 0; r < snapshot.readers.size(); ++r) {
    const ReaderTelemetry& reader = snapshot.readers[r];
    os << (r == 0 ? "" : ",") << R"({"metrics":)";
    write_json(os, reader.metrics);
    os << R"(,"ber_estimate":)" << num(reader.ber_estimate) << R"(,"epochs":)"
       << reader.epochs << R"(,"retry_budget":)" << reader.retry_budget
       << R"(,"health":")" << to_string(reader.health) << R"(","crashes":)"
       << reader.metrics.reader_crashes << R"(,"restarts":)"
       << reader.metrics.reader_restarts << '}';
  }
  os << "]";
  // Channel extras: emitted only when channels are configured, so a
  // channel-free aggregator keeps its exact pre-channel byte layout.
  if (!snapshot.channels.empty()) {
    os << R"(,"channels":[)";
    for (std::size_t c = 0; c < snapshot.channels.size(); ++c) {
      const ChannelTelemetry& channel = snapshot.channels[c];
      os << (c == 0 ? "" : ",") << R"({"readers":)" << channel.readers
         << R"(,"rounds":)" << channel.rounds << R"(,"busy_us":)"
         << num(channel.busy_us) << '}';
    }
    os << R"(],"handoffs":)" << snapshot.fleet_handoffs
       << R"(,"churn_departures":)" << snapshot.fleet_churn_departures;
  }
  os << "}";
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream oss;
  write_json(oss, snapshot);
  return oss.str();
}

std::string to_json(const StreamEvent& event) {
  std::ostringstream oss;
  oss << R"({"type":"event","event":")" << to_string(event.kind)
      << R"(","reader":)" << event.reader << R"(,"count":)" << event.count
      << R"(,"sequence":)" << event.sequence << R"(,"sim_time_us":)"
      << num(event.sim_time_us) << '}';
  return oss.str();
}

// --- StreamSubscription -----------------------------------------------------

StreamSubscription::StreamSubscription(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      ring_(capacity == 0 ? 1 : capacity) {}

void StreamSubscription::push(Item item) {
  {
    const MutexLock lock(mutex_);
    if (closed_) return;
    if (size_ == ring_.size()) {
      // Backpressure policy: the publisher never waits. Drop the oldest
      // queued item, count it, and keep going.
      head_ = (head_ + 1) % ring_.size();
      --size_;
      ++dropped_;
    }
    ring_[(head_ + size_) % ring_.size()] = std::move(item);
    ++size_;
  }
  ready_.notify_all();
}

std::optional<StreamSubscription::Item> StreamSubscription::poll() {
  const MutexLock lock(mutex_);
  if (size_ == 0) return std::nullopt;
  Item item = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --size_;
  return item;
}

std::optional<StreamSubscription::Item> StreamSubscription::wait(
    unsigned timeout_ms) {
  const MutexLock lock(mutex_);
  ready_.wait_for(mutex_, std::chrono::milliseconds(timeout_ms), [this] {
    mutex_.assert_held();
    return size_ > 0 || closed_;
  });
  if (size_ == 0) return std::nullopt;
  Item item = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --size_;
  return item;
}

std::uint64_t StreamSubscription::dropped() const {
  const MutexLock lock(mutex_);
  return dropped_;
}

bool StreamSubscription::closed() const {
  const MutexLock lock(mutex_);
  return closed_;
}

void StreamSubscription::close() {
  {
    const MutexLock lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

// --- StreamingAggregator ----------------------------------------------------

StreamingAggregator::StreamingAggregator(std::size_t readers)
    : readers_n_(readers), readers_(readers) {
  if (readers == 0)
    throw std::invalid_argument("StreamingAggregator: need >= 1 reader");
}

// rfidlint: hotpath(stream-update-reader)
void StreamingAggregator::update_reader(std::size_t reader,
                                        const Metrics& cumulative,
                                        double ber_estimate) {
  const MutexLock lock(mutex_);
  ReaderState& state = readers_.at(reader);
  state.live = cumulative;
  state.ber_estimate = ber_estimate;
}

void StreamingAggregator::complete_epoch(std::size_t reader,
                                         const Metrics& session_totals) {
  const MutexLock lock(mutex_);
  ReaderState& state = readers_.at(reader);
  state.completed.merge(session_totals);
  state.live = Metrics{};
  ++state.epochs;
}

void StreamingAggregator::set_retry_budget(std::size_t reader,
                                           std::uint64_t budget) {
  const MutexLock lock(mutex_);
  readers_.at(reader).retry_budget = budget;
}

void StreamingAggregator::set_reader_health(std::size_t reader,
                                            ReaderHealth health) {
  const MutexLock lock(mutex_);
  readers_.at(reader).health = health;
}

void StreamingAggregator::configure_channels(std::size_t channels) {
  const MutexLock lock(mutex_);
  channels_.assign(channels, ChannelTelemetry{});
}

void StreamingAggregator::update_channel(std::size_t channel,
                                         std::size_t readers,
                                         std::uint64_t rounds,
                                         double busy_us) {
  const MutexLock lock(mutex_);
  ChannelTelemetry& state = channels_.at(channel);
  state.readers = readers;
  state.rounds = rounds;
  state.busy_us = busy_us;
}

void StreamingAggregator::set_fleet_counters(std::uint64_t handoffs,
                                             std::uint64_t churn_departures) {
  const MutexLock lock(mutex_);
  fleet_handoffs_ = handoffs;
  fleet_churn_departures_ = churn_departures;
}

void StreamingAggregator::restore_reader(std::size_t reader,
                                         const Metrics& completed,
                                         std::uint64_t epochs,
                                         ReaderHealth health) {
  const MutexLock lock(mutex_);
  ReaderState& state = readers_.at(reader);
  state.completed = completed;
  state.live = Metrics{};
  state.epochs = epochs;
  state.health = health;
}

std::shared_ptr<const MetricsSnapshot> StreamingAggregator::publish(
    double wall_dt_s) {
  auto snapshot = std::make_shared<MetricsSnapshot>();
  std::vector<StreamEvent> events;
  std::vector<std::shared_ptr<StreamSubscription>> fan_out;
  {
    const MutexLock lock(mutex_);
    snapshot->sequence = ++sequence_;
    snapshot->interval_s = wall_dt_s;
    snapshot->channels = channels_;
    snapshot->fleet_handoffs = fleet_handoffs_;
    snapshot->fleet_churn_departures = fleet_churn_departures_;
    snapshot->readers.reserve(readers_.size());
    for (const ReaderState& state : readers_) {
      ReaderTelemetry telemetry;
      telemetry.metrics = state.completed;  // bit-exact: completed ⊕ live,
      telemetry.metrics.merge(state.live);  // always folded in this order
      telemetry.ber_estimate = state.ber_estimate;
      telemetry.epochs = state.epochs;
      telemetry.retry_budget = state.retry_budget;
      telemetry.health = state.health;
      snapshot->totals.merge(telemetry.metrics);
      snapshot->readers.push_back(std::move(telemetry));
    }
    const MetricsSnapshot* previous = latest_.get();
    if (wall_dt_s > 0.0) {
      const std::uint64_t prev_rounds =
          previous == nullptr ? 0 : previous->totals.rounds;
      snapshot->rounds_per_sec =
          static_cast<double>(snapshot->totals.rounds - prev_rounds) /
          wall_dt_s;
    }
    for (std::size_t r = 0; r < snapshot->readers.size(); ++r) {
      const ReaderTelemetry& now = snapshot->readers[r];
      const bool had = previous != nullptr && r < previous->readers.size();
      const std::uint64_t prev_degrade =
          had ? previous->readers[r].metrics.degradations : 0;
      const std::uint64_t prev_undelivered =
          had ? previous->readers[r].metrics.undelivered : 0;
      const std::uint64_t prev_epochs = had ? previous->readers[r].epochs : 0;
      const auto emit = [&](StreamEvent::Kind kind, std::uint64_t delta) {
        if (delta == 0) return;
        events.push_back(StreamEvent{kind, r, delta, snapshot->sequence,
                                     now.metrics.time_us});
      };
      emit(StreamEvent::Kind::kDegrade,
           now.metrics.degradations - prev_degrade);
      emit(StreamEvent::Kind::kUndelivered,
           now.metrics.undelivered - prev_undelivered);
      emit(StreamEvent::Kind::kEpoch, now.epochs - prev_epochs);
      const ReaderHealth prev_health =
          had ? previous->readers[r].health : ReaderHealth::kHealthy;
      if (now.health == ReaderHealth::kDown &&
          prev_health != ReaderHealth::kDown) {
        emit(StreamEvent::Kind::kReaderDown, 1);
      }
      if (now.health == ReaderHealth::kHealthy &&
          (prev_health == ReaderHealth::kDown ||
           prev_health == ReaderHealth::kRecovering)) {
        emit(StreamEvent::Kind::kReaderRecovered, 1);
      }
    }
    latest_ = snapshot;
    fan_out = subscriptions_;
  }
  // Fan-out happens outside the aggregator lock: a subscription's own lock
  // is the only one push() takes, so a stalled consumer cannot hold up
  // update_reader() on the simulation thread.
  for (const auto& subscription : fan_out) {
    StreamSubscription::Item item;
    item.type = StreamSubscription::Item::Type::kSnapshot;
    item.snapshot = snapshot;
    subscription->push(std::move(item));
    for (const StreamEvent& event : events) {
      StreamSubscription::Item event_item;
      event_item.type = StreamSubscription::Item::Type::kEvent;
      event_item.event = event;
      subscription->push(std::move(event_item));
    }
  }
  return snapshot;
}

std::shared_ptr<const MetricsSnapshot> StreamingAggregator::latest() const {
  const MutexLock lock(mutex_);
  return latest_;
}

std::shared_ptr<StreamSubscription> StreamingAggregator::subscribe(
    std::size_t capacity) {
  auto subscription = std::make_shared<StreamSubscription>(capacity);
  const MutexLock lock(mutex_);
  subscriptions_.push_back(subscription);
  return subscription;
}

void StreamingAggregator::unsubscribe(
    const std::shared_ptr<StreamSubscription>& subscription) {
  if (subscription == nullptr) return;
  {
    const MutexLock lock(mutex_);
    std::erase(subscriptions_, subscription);
  }
  subscription->close();
}

void StreamingAggregator::close_all() {
  std::vector<std::shared_ptr<StreamSubscription>> to_close;
  {
    const MutexLock lock(mutex_);
    to_close.swap(subscriptions_);
  }
  for (const auto& subscription : to_close) subscription->close();
}

}  // namespace rfid::obs
